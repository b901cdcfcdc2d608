//! The discrete-event backend: one server + N clients over simulated links.
//!
//! Reproduces the paper's testbed loop (Section V-A): every client submits
//! one action per move period (Table I: 300 ms), the server runs its tick
//! (τ) and push (ω·RTT) cycles, and all messages traverse
//! latency/bandwidth-modeled links. Machines process one event at a time
//! ([`crate::machine::Machine`]); events that find their machine busy are
//! deferred, which is how compute saturation turns into response-time
//! collapse (Figure 6).
//!
//! The harness is generic over [`ProtocolSuite`]: SEVE's four variants and
//! every baseline run under the identical workload, network, and cost
//! model — the apples-to-apples requirement of the evaluation.
//!
//! This loop is the simulator substrate of the unified driver layer. Its
//! timers are the [`crate::timer`] *nominal* discipline inlined (the next
//! firing stays on the nominal grid, scheduled at `max(nominal, now)`, the
//! cycle ends past a hard horizon), and its links accept the same
//! [`FaultPlan`] the threaded backends do — with no faults configured the
//! event schedule is bit-identical to the pre-driver harness, pinned by the
//! golden digests in `tests/golden_equivalence.rs`.

use crate::fault::{FaultPlan, FaultyLink, LinkPartition};
use crate::machine::Machine;
use crate::session::{Resequencer, SessionParams, SessionStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seve_core::consistency::ConsistencyOracle;
use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode, WireSize};
use seve_core::metrics::ServerMetrics;
use seve_net::event::{EventQueue, EventQueueKind};
use seve_net::link::Link;
use seve_net::stats::Summary;
use seve_net::time::{SimDuration, SimTime};
use seve_world::ids::ClientId;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::sync::Arc;

/// Testbed parameters. Defaults are Table I.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimConfig {
    /// One-way link latency. Table I reports 238 ms *average latency*
    /// between machines, which we read as the round trip (the protocol
    /// config's `rtt`), giving 119 ms each way.
    pub latency: SimDuration,
    /// Per-link bandwidth cap in bits/second (Table I: 100 Kbps).
    pub bandwidth_bps: Option<u64>,
    /// Moves submitted per client (Table I: 100).
    pub moves_per_client: u32,
    /// Move generation period (Table I: every 300 ms).
    pub move_period: SimDuration,
    /// The simulation tick τ driving Algorithm 7 analysis.
    pub tick: SimDuration,
    /// Extra time after the last scheduled move during which the system
    /// drains (messages deliver, completions install). Server tick/push
    /// cycles stop at `last move + drain`, so in *saturated* runs actions
    /// still backlogged then never resolve — response statistics reflect
    /// the actions resolved within the window, exactly as a wall-clock
    /// -bounded testbed run would truncate.
    pub drain: SimDuration,
    /// Seed for move-timer staggering.
    pub seed: u64,
    /// Stagger the clients' move timers (the realistic default). `false`
    /// fires every client on the same instants — the synchronized-tick
    /// adversary of Section III-E ("if each of them tries to pick up the
    /// two forks at the same tick").
    pub stagger: bool,
    /// Event-queue implementation driving the loop. The hierarchical timer
    /// wheel is the default (O(1) schedule/pop keeps thousand-client runs
    /// affordable); the binary heap is retained as the drain-order oracle.
    /// Both pop the identical event sequence, so every digest and metric is
    /// independent of the choice.
    pub event_queue: EventQueueKind,
    /// Session supervision (acked resume protocol). The sim models the
    /// single-address-space limit of the threaded wrappers: acks are
    /// instantaneous (the window trims the moment the client accepts a
    /// frame in order), and retransmit watchdogs are armed only on lanes
    /// that can actually lose or partition — so a fault-free run schedules
    /// not one extra event and stays bit-identical to the golden digests.
    pub session: SessionParams,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            latency: SimDuration::from_micros(119_000),
            bandwidth_bps: Some(100_000),
            moves_per_client: 100,
            move_period: SimDuration::from_ms(300),
            tick: SimDuration::from_ms(50),
            drain: SimDuration::from_secs(5),
            seed: 0x51_4E5E,
            stagger: true,
            event_queue: EventQueueKind::Wheel,
            session: SessionParams::default(),
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Protocol name (from the suite).
    pub protocol: String,
    /// Number of clients.
    pub clients: usize,
    /// Response time of own actions, ms, merged over all clients.
    pub response_ms: Summary,
    /// Time to drop notices, ms.
    pub drop_notice_ms: Summary,
    /// Total actions submitted.
    pub submitted: u64,
    /// Actions dropped by Algorithm 7.
    pub dropped: u64,
    /// Total bytes over every link (Figure 9's "total data transfer").
    pub total_bytes: u64,
    /// Bytes from server to clients.
    pub server_down_bytes: u64,
    /// Bytes from clients to server.
    pub server_up_bytes: u64,
    /// Total messages over every link.
    pub total_msgs: u64,
    /// Consistency-oracle violations (outcome mismatches + missing reads).
    pub violations: usize,
    /// Replicas' evaluations with unmaterialized read-set objects.
    pub missing_read_evals: u64,
    /// Re-evaluations that changed outcome (must be 0 for SEVE).
    pub replay_divergences: u64,
    /// Out-of-order reconciliations across all clients (protocol-visible;
    /// independent of the checkpoint optimization).
    pub replay_rebuilds: u64,
    /// Log entries actually re-applied during those rebuilds (the real
    /// host-side work; checkpoints and the commute gate shrink this).
    pub replay_entries_replayed: u64,
    /// Rebuilds that resumed from an intermediate checkpoint.
    pub replay_checkpoint_hits: u64,
    /// Out-of-order inserts spliced with no replay at all.
    pub replay_commute_hits: u64,
    /// Total evaluation records cross-checked.
    pub evals_checked: u64,
    /// Total client compute, µs.
    pub client_compute_us: u64,
    /// Total server compute, µs.
    pub server_compute_us: u64,
    /// Server utilization over the run.
    pub server_utilization: f64,
    /// Snapshot of the server metrics.
    pub server: ServerMetrics,
    /// Per-client final stable-state digests (for equality checks in
    /// complete-world modes).
    pub stable_digests: Vec<u64>,
    /// Digest of ζ_S, for servers that maintain one.
    pub committed_digest: Option<u64>,
    /// Virtual duration of the run.
    pub duration: SimDuration,
    /// Supervision-layer counters (retransmits, acks, reconnects, reaps).
    /// All coping counters are exactly zero on a fault-free run.
    pub session: SessionStats,
}

impl RunResult {
    /// Percentage of submitted actions dropped (Table II).
    pub fn drop_percent(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            100.0 * self.dropped as f64 / self.submitted as f64
        }
    }

    /// Total transfer in kilobytes (Figure 9's unit).
    pub fn total_kb(&self) -> f64 {
        self.total_bytes as f64 / 1000.0
    }
}

enum Ev<U, D> {
    Move {
        client: usize,
    },
    /// A message arriving at the server from `client`.
    Up {
        client: usize,
        msg: U,
    },
    /// A message arriving at client `client`. Under supervision `seq` is
    /// the down-lane sequence number (1-based); unsupervised lanes carry 0.
    Down {
        client: usize,
        msg: D,
        seq: u64,
    },
    /// The server machine may be free: drain its inbox.
    WakeServer,
    /// Client `client`'s machine may be free: drain its inbox.
    WakeClient {
        client: usize,
    },
    Tick,
    Push,
    /// Retransmit watchdog for `client`'s resend window (armed only on
    /// lanes that can fault — never scheduled on a clean run).
    Retransmit {
        client: usize,
    },
    /// End of `client`'s link partition: reconnect, resume, flush.
    Heal {
        client: usize,
    },
    /// Liveness deadline for a crashed `client`: reap its lane.
    Reap {
        client: usize,
    },
}

/// Schedule one message at each faulted arrival time. The single-arrival
/// path (always taken with no faults) moves the message without cloning, so
/// the scheduling sequence is exactly the pre-fault harness's.
fn fan<M: Clone>(arrivals: &[SimTime], msg: M, mut sched: impl FnMut(SimTime, M)) {
    if arrivals.len() == 1 {
        sched(arrivals[0], msg);
    } else {
        for &at in arrivals {
            sched(at, msg.clone());
        }
    }
}

/// The simulation: builds a suite over a world and runs the Table I loop.
pub struct Simulation<'a, W: GameWorld, P: ProtocolSuite<W>> {
    world: Arc<W>,
    suite: &'a P,
    cfg: SimConfig,
    faults: FaultPlan,
}

impl<'a, W: GameWorld, P: ProtocolSuite<W>> Simulation<'a, W, P> {
    /// Prepare a simulation of `suite` over `world` (no faults).
    pub fn new(world: Arc<W>, suite: &'a P, cfg: SimConfig) -> Self {
        Self {
            world,
            suite,
            cfg,
            faults: FaultPlan::none(),
        }
    }

    /// Inject `faults` into every link (and crash the scheduled clients).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Run to completion with the given workload, returning all metrics.
    pub fn run(&self, workload: &mut dyn Workload<W>) -> RunResult {
        let n = self.world.num_clients();
        let cfg = &self.cfg;
        let (mut server, mut clients) = self.suite.build(Arc::clone(&self.world));
        assert_eq!(clients.len(), n);

        let mut queue: EventQueue<Ev<P::Up, P::Down>> = EventQueue::with_kind(cfg.event_queue);
        let mut client_mach = vec![Machine::new(); n];
        let mut server_mach = Machine::new();
        let mut up_links: Vec<FaultyLink> = (0..n)
            .map(|i| {
                FaultyLink::new(
                    Link::new(cfg.latency, cfg.bandwidth_bps),
                    self.faults.up.clone(),
                    FaultPlan::up_stream(i),
                )
            })
            .collect();
        let mut down_links: Vec<FaultyLink> = (0..n)
            .map(|i| {
                FaultyLink::new(
                    Link::new(cfg.latency, cfg.bandwidth_bps),
                    self.faults.down.clone(),
                    FaultPlan::down_stream(i),
                )
            })
            .collect();

        // Crash schedule: client i disconnects abruptly after its k-th
        // submission. In-flight traffic it already sent still arrives (a
        // dead socket does not recall transmitted bytes); traffic *to* it
        // is discarded.
        let crash_at: Vec<Option<u32>> = (0..n)
            .map(|i| self.faults.crash_for(ClientId(i as u16)))
            .collect();
        let mut crashed = vec![false; n];

        // Session supervision state. The sim collapses the ack round trip:
        // the server's resend window trims the instant the client accepts a
        // frame in order (both halves live in this address space), which
        // keeps a fault-free supervised schedule event-for-event identical
        // to the unsupervised one. Retransmit watchdogs are armed only on
        // lanes that can actually lose traffic (down-lane faults configured
        // or a partition scheduled), never on clean lanes.
        let sup = cfg.session.supervised;
        let rto = SimDuration::from_micros(cfg.session.rto.as_micros() as u64);
        let liveness = SimDuration::from_micros(cfg.session.liveness.as_micros() as u64);
        let partition_at: Vec<Option<LinkPartition>> = (0..n)
            .map(|i| self.faults.partition_for(ClientId(i as u16)))
            .collect();
        let down_can_fault = !self.faults.down.is_none();
        let watch: Vec<bool> = (0..n)
            .map(|i| sup && (down_can_fault || partition_at[i].is_some()))
            .collect();
        let mut windows: Vec<std::collections::VecDeque<(u64, P::Down)>> =
            (0..n).map(|_| std::collections::VecDeque::new()).collect();
        let mut next_seq: Vec<u64> = vec![1; n];
        let mut reseq: Vec<Resequencer<P::Down>> = (0..n).map(|_| Resequencer::new()).collect();
        let mut acked: Vec<u64> = vec![0; n];
        let mut attempts: Vec<u32> = vec![0; n];
        let mut armed = vec![false; n];
        let mut reaped = vec![false; n];
        let mut last_progress: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut partition_until: Vec<Option<SimTime>> = vec![None; n];
        let mut pending_up: Vec<Vec<P::Up>> = (0..n).map(|_| Vec::new()).collect();
        let mut reseq_out: Vec<P::Down> = Vec::new();
        let mut stats = SessionStats::default();

        // Stagger the move timers: clients are not synchronized, and "the
        // random order of arrival of actions at the server will ensure
        // fairness" (Section III-E).
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut next_move: Vec<SimTime> = (0..n)
            .map(|_| {
                if cfg.stagger {
                    SimTime(rng.gen_range(0..cfg.move_period.as_micros().max(1)))
                } else {
                    SimTime::ZERO
                }
            })
            .collect();
        let mut moves_left = vec![cfg.moves_per_client; n];
        for (i, &t) in next_move.iter().enumerate() {
            if cfg.moves_per_client > 0 {
                queue.schedule(t, Ev::Move { client: i });
            }
        }
        let last_move = next_move
            .iter()
            .map(|t| {
                *t + cfg
                    .move_period
                    .scaled((cfg.moves_per_client.saturating_sub(1)) as f64)
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        let hard_end = last_move + cfg.drain;

        // Server cycles.
        let mut tick_nominal = SimTime::ZERO + cfg.tick;
        queue.schedule(tick_nominal, Ev::Tick);
        let push_period = server.push_period();
        let mut push_nominal = SimTime::ZERO;
        if let Some(p) = push_period {
            push_nominal = SimTime::ZERO + p;
            queue.schedule(push_nominal, Ev::Push);
        }

        let mut up_out: Vec<P::Up> = Vec::new();
        let mut down_out: Vec<(ClientId, P::Down)> = Vec::new();
        let mut arrivals: Vec<SimTime> = Vec::new();
        let mut end_time = SimTime::ZERO;

        // Per-node FIFO inboxes: a message arriving while the node is busy
        // queues here, preserving arrival order. (Rescheduling the event
        // itself would let a later arrival overtake a deferred one when
        // their retry times tie — a reordering a real TCP stream never
        // exhibits.)
        let mut server_inbox: std::collections::VecDeque<(usize, P::Up)> =
            std::collections::VecDeque::new();
        let mut client_inbox: Vec<std::collections::VecDeque<P::Down>> =
            (0..n).map(|_| std::collections::VecDeque::new()).collect();

        // One down-lane emission, supervision-aware: assign the sequence
        // number, remember the frame in the resend window, arm the
        // retransmit watchdog on faultable lanes. A macro rather than a
        // closure so the four emission sites (deliver, wake, tick, push)
        // share the bookkeeping without fighting the borrow checker.
        macro_rules! send_down {
            ($d:expr, $m:expr, $done:expr) => {{
                let d: usize = $d;
                let done = $done;
                if sup && reaped[d] {
                    // Reaped lane: the server knows this client is gone —
                    // nothing is sent, nothing buffers.
                } else {
                    let m = $m;
                    let seq = if sup {
                        let s = next_seq[d];
                        next_seq[d] += 1;
                        if windows[d].is_empty() {
                            last_progress[d] = done;
                        }
                        windows[d].push_back((s, m.clone()));
                        s
                    } else {
                        0
                    };
                    down_links[d].send(done, m.wire_bytes(), &mut arrivals);
                    fan(&arrivals, m, |at, m| {
                        queue.schedule(
                            at,
                            Ev::Down {
                                client: d,
                                msg: m,
                                seq,
                            },
                        )
                    });
                    if watch[d] && !armed[d] {
                        armed[d] = true;
                        queue.schedule(done + rto, Ev::Retransmit { client: d });
                    }
                }
            }};
        }

        // One up-lane emission: a partitioned client buffers instead of
        // sending (the bytes count when the flush actually happens, at
        // heal).
        macro_rules! send_up {
            ($c:expr, $m:expr, $done:expr) => {{
                let c: usize = $c;
                let done = $done;
                let m = $m;
                if sup && partition_until[c].is_some() {
                    pending_up[c].push(m);
                } else {
                    up_links[c].send(done, m.wire_bytes(), &mut arrivals);
                    fan(&arrivals, m, |at, m| {
                        queue.schedule(at, Ev::Up { client: c, msg: m })
                    });
                }
            }};
        }

        while let Some((now, ev)) = queue.pop() {
            end_time = now;
            match ev {
                Ev::Move { client } => {
                    if crashed[client] || reaped[client] {
                        continue;
                    }
                    if client_mach[client].is_busy(now) {
                        queue.schedule(client_mach[client].free_at(), Ev::Move { client });
                        continue;
                    }
                    let c = &mut clients[client];
                    let seq = c.next_seq();
                    let id = ClientId(client as u16);
                    up_out.clear();
                    if let Some(action) = workload.next_action(id, seq, c.optimistic(), now.as_ms())
                    {
                        let cost = c.submit(now, action, &mut up_out);
                        let done = client_mach[client].run(now, cost);
                        for msg in up_out.drain(..) {
                            send_up!(client, msg, done);
                        }
                    }
                    moves_left[client] -= 1;
                    if crash_at[client]
                        .is_some_and(|k| cfg.moves_per_client - moves_left[client] >= k)
                    {
                        crashed[client] = true;
                        client_inbox[client].clear();
                        if sup {
                            // Liveness supervision: the lane stays up for
                            // the resume window, then the server reaps it.
                            queue.schedule(now + liveness, Ev::Reap { client });
                        }
                        continue;
                    }
                    if sup {
                        if let Some(p) = partition_at[client] {
                            if cfg.moves_per_client - moves_left[client] == p.after_submissions {
                                let until =
                                    now + SimDuration::from_micros(p.duration.as_micros() as u64);
                                partition_until[client] = Some(until);
                                queue.schedule(until, Ev::Heal { client });
                            }
                        }
                    }
                    if moves_left[client] > 0 {
                        next_move[client] += cfg.move_period;
                        queue.schedule(next_move[client].max(now), Ev::Move { client });
                    }
                }
                Ev::Up { client, msg } => {
                    if sup && reaped[client] {
                        // A reaped lane swallows late traffic.
                        continue;
                    }
                    server_inbox.push_back((client, msg));
                    if server_mach.is_busy(now) {
                        queue.schedule(server_mach.free_at(), Ev::WakeServer);
                        continue;
                    }
                    let (client, msg) = server_inbox.pop_front().expect("just pushed");
                    down_out.clear();
                    let cost = server.deliver(now, ClientId(client as u16), msg, &mut down_out);
                    let done = server_mach.run(now, cost);
                    for (dest, m) in down_out.drain(..) {
                        send_down!(dest.index(), m, done);
                    }
                    if !server_inbox.is_empty() {
                        queue.schedule(done, Ev::WakeServer);
                    }
                }
                Ev::WakeServer => {
                    if server_inbox.is_empty() {
                        continue;
                    }
                    if server_mach.is_busy(now) {
                        queue.schedule(server_mach.free_at(), Ev::WakeServer);
                        continue;
                    }
                    let (client, msg) = server_inbox.pop_front().expect("checked non-empty");
                    down_out.clear();
                    let cost = server.deliver(now, ClientId(client as u16), msg, &mut down_out);
                    let done = server_mach.run(now, cost);
                    for (dest, m) in down_out.drain(..) {
                        send_down!(dest.index(), m, done);
                    }
                    if !server_inbox.is_empty() {
                        queue.schedule(done, Ev::WakeServer);
                    }
                }
                Ev::Down { client, msg, seq } => {
                    if crashed[client] || reaped[client] {
                        continue;
                    }
                    if sup {
                        if partition_until[client].is_some_and(|t| now < t) {
                            // The link is dark: the frame is lost. The
                            // resume handshake at heal retransmits it.
                            continue;
                        }
                        let before = client_inbox[client].len();
                        reseq[client].accept(seq, msg, &mut reseq_out);
                        for m in reseq_out.drain(..) {
                            client_inbox[client].push_back(m);
                        }
                        // Instant ack: trim the resend window to the
                        // client's cumulative ack (both halves share this
                        // address space, so the ack round trip collapses —
                        // zero cost, zero bytes, zero events).
                        let cum = reseq[client].cum_ack();
                        if cum > acked[client] {
                            acked[client] = cum;
                            stats.acks += 1;
                            while windows[client].front().is_some_and(|&(s, _)| s <= cum) {
                                windows[client].pop_front();
                            }
                            attempts[client] = 0;
                            last_progress[client] = now;
                        }
                        if client_inbox[client].len() == before {
                            // Held out of order (or a duplicate): nothing
                            // newly deliverable.
                            continue;
                        }
                    } else {
                        client_inbox[client].push_back(msg);
                    }
                    if client_mach[client].is_busy(now) {
                        queue.schedule(client_mach[client].free_at(), Ev::WakeClient { client });
                        continue;
                    }
                    let msg = client_inbox[client]
                        .pop_front()
                        .expect("released at least one");
                    up_out.clear();
                    let cost = clients[client].deliver(now, msg, &mut up_out);
                    let done = client_mach[client].run(now, cost);
                    for m in up_out.drain(..) {
                        send_up!(client, m, done);
                    }
                    if !client_inbox[client].is_empty() {
                        queue.schedule(done, Ev::WakeClient { client });
                    }
                }
                Ev::WakeClient { client } => {
                    if crashed[client] || reaped[client] || client_inbox[client].is_empty() {
                        continue;
                    }
                    if client_mach[client].is_busy(now) {
                        queue.schedule(client_mach[client].free_at(), Ev::WakeClient { client });
                        continue;
                    }
                    let msg = client_inbox[client].pop_front().expect("checked non-empty");
                    up_out.clear();
                    let cost = clients[client].deliver(now, msg, &mut up_out);
                    let done = client_mach[client].run(now, cost);
                    for m in up_out.drain(..) {
                        send_up!(client, m, done);
                    }
                    if !client_inbox[client].is_empty() {
                        queue.schedule(done, Ev::WakeClient { client });
                    }
                }
                Ev::Tick => {
                    if server_mach.is_busy(now) {
                        queue.schedule(server_mach.free_at(), Ev::Tick);
                        continue;
                    }
                    down_out.clear();
                    let cost = server.tick(now, &mut down_out);
                    let done = server_mach.run(now, cost);
                    for (dest, m) in down_out.drain(..) {
                        send_down!(dest.index(), m, done);
                    }
                    tick_nominal += cfg.tick;
                    if tick_nominal <= hard_end {
                        queue.schedule(tick_nominal.max(now), Ev::Tick);
                    }
                }
                Ev::Push => {
                    if server_mach.is_busy(now) {
                        queue.schedule(server_mach.free_at(), Ev::Push);
                        continue;
                    }
                    down_out.clear();
                    let cost = server.push_tick(now, &mut down_out);
                    let done = server_mach.run(now, cost);
                    for (dest, m) in down_out.drain(..) {
                        send_down!(dest.index(), m, done);
                    }
                    let p = push_period.expect("push event only scheduled with a period");
                    push_nominal += p;
                    if push_nominal <= hard_end {
                        queue.schedule(push_nominal.max(now), Ev::Push);
                    }
                }
                Ev::Retransmit { client } => {
                    armed[client] = false;
                    if !sup || reaped[client] || windows[client].is_empty() {
                        continue;
                    }
                    if partition_until[client].is_some() {
                        // Dark link: the heal event will retransmit the
                        // window; keep the watchdog alive past it.
                        armed[client] = true;
                        queue.schedule(now + rto, Ev::Retransmit { client });
                        continue;
                    }
                    let due = last_progress[client] + rto;
                    if now < due {
                        armed[client] = true;
                        queue.schedule(due, Ev::Retransmit { client });
                        continue;
                    }
                    attempts[client] += 1;
                    if attempts[client] >= cfg.session.give_up {
                        // Unreachable after give_up windows: reap the lane.
                        reaped[client] = true;
                        windows[client].clear();
                        client_inbox[client].clear();
                        pending_up[client].clear();
                        stats.reaps += 1;
                        continue;
                    }
                    // Go-back-N: resend every unacked frame. The faulty
                    // link re-rolls verdicts per transmission, so repeated
                    // rounds converge.
                    stats.retransmits += windows[client].len() as u64;
                    let burst: Vec<(u64, P::Down)> = windows[client].iter().cloned().collect();
                    for (seq, m) in burst {
                        down_links[client].send(now, m.wire_bytes(), &mut arrivals);
                        fan(&arrivals, m, |at, m| {
                            queue.schedule(
                                at,
                                Ev::Down {
                                    client,
                                    msg: m,
                                    seq,
                                },
                            )
                        });
                    }
                    last_progress[client] = now;
                    armed[client] = true;
                    queue.schedule(now + rto, Ev::Retransmit { client });
                }
                Ev::Heal { client } => {
                    if !sup || crashed[client] || reaped[client] {
                        continue;
                    }
                    partition_until[client] = None;
                    stats.reconnects += 1;
                    // Resume handshake: the client reports its last
                    // cumulative ack, the server retransmits exactly the
                    // frames past it (already-delivered frames are never
                    // replayed — the resequencer would drop them anyway).
                    stats.retransmits += windows[client].len() as u64;
                    let burst: Vec<(u64, P::Down)> = windows[client].iter().cloned().collect();
                    for (seq, m) in burst {
                        down_links[client].send(now, m.wire_bytes(), &mut arrivals);
                        fan(&arrivals, m, |at, m| {
                            queue.schedule(
                                at,
                                Ev::Down {
                                    client,
                                    msg: m,
                                    seq,
                                },
                            )
                        });
                    }
                    last_progress[client] = now;
                    // Flush the ups buffered while the link was dark; their
                    // bytes count now, when they actually cross the wire.
                    let ups = std::mem::take(&mut pending_up[client]);
                    for m in ups {
                        up_links[client].send(now, m.wire_bytes(), &mut arrivals);
                        fan(&arrivals, m, |at, m| {
                            queue.schedule(at, Ev::Up { client, msg: m })
                        });
                    }
                }
                Ev::Reap { client } => {
                    if !sup || reaped[client] {
                        continue;
                    }
                    // Liveness expired with no resume: release the lane and
                    // every buffer it pinned.
                    reaped[client] = true;
                    windows[client].clear();
                    client_inbox[client].clear();
                    pending_up[client].clear();
                    stats.reaps += 1;
                }
            }
        }

        // Collect metrics.
        let mut oracle = ConsistencyOracle::new();
        let mut response_ms = Summary::new();
        let mut drop_notice_ms = Summary::new();
        let mut submitted = 0u64;
        let mut dropped = 0u64;
        let mut missing = 0u64;
        let mut client_compute = 0u64;
        let mut divergences = 0u64;
        let mut rebuilds = 0u64;
        let mut entries_replayed = 0u64;
        let mut checkpoint_hits = 0u64;
        let mut commute_hits = 0u64;
        let mut stable_digests = Vec::with_capacity(n);
        for c in clients.iter_mut() {
            stable_digests.push(c.stable().digest());
            let m = c.metrics_mut();
            response_ms.merge(&m.response_ms);
            drop_notice_ms.merge(&m.drop_notice_ms);
            submitted += m.submitted;
            dropped += m.dropped;
            client_compute += m.compute_us;
            divergences += m.replay_divergences;
            rebuilds += m.replay_rebuilds;
            entries_replayed += m.replay_entries_replayed;
            checkpoint_hits += m.replay_checkpoint_hits;
            commute_hits += m.replay_commute_hits;
            for rec in m.take_eval_records() {
                missing += u64::from(rec.missing_reads > 0);
                oracle.observe(&rec);
            }
        }
        let total_bytes: u64 = up_links
            .iter()
            .chain(down_links.iter())
            .map(|l| l.link().bytes_sent())
            .sum();
        let total_msgs: u64 = up_links
            .iter()
            .chain(down_links.iter())
            .map(|l| l.link().msgs_sent())
            .sum();
        let server_down_bytes: u64 = down_links.iter().map(|l| l.link().bytes_sent()).sum();
        let server_up_bytes: u64 = up_links.iter().map(|l| l.link().bytes_sent()).sum();
        let duration = end_time - SimTime::ZERO;

        for r in &reseq {
            stats.dups_dropped += r.dups_dropped;
            stats.holds += r.holds;
        }
        let mut server_metrics = server.metrics().clone();
        server_metrics.stage.session_retransmits += stats.retransmits;
        server_metrics.stage.session_acks += stats.acks;
        server_metrics.stage.session_reconnects += stats.reconnects;
        server_metrics.stage.session_reaps += stats.reaps;
        server_metrics.stage.session_sheds += stats.sheds;

        RunResult {
            protocol: self.suite.name().to_string(),
            clients: n,
            response_ms,
            drop_notice_ms,
            submitted,
            dropped,
            total_bytes,
            server_down_bytes,
            server_up_bytes,
            total_msgs,
            violations: oracle.violations().len(),
            missing_read_evals: missing,
            replay_divergences: divergences,
            replay_rebuilds: rebuilds,
            replay_entries_replayed: entries_replayed,
            replay_checkpoint_hits: checkpoint_hits,
            replay_commute_hits: commute_hits,
            evals_checked: oracle.records(),
            client_compute_us: client_compute,
            server_compute_us: server_metrics.compute_us,
            server_utilization: server_mach.utilization(duration),
            server: server_metrics,
            stable_digests,
            committed_digest: server.committed().map(|s| s.digest()),
            duration,
            session: stats,
        }
    }
}

/// Aggregate of repeated runs with distinct stagger seeds — the paper's
/// "averaged over 10 runs of the system" methodology. Each run is still
/// individually deterministic.
#[derive(Clone, Debug)]
pub struct AveragedResult {
    /// The individual runs, in seed order.
    pub runs: Vec<RunResult>,
}

impl AveragedResult {
    /// Mean of the per-run mean responses, ms.
    pub fn mean_response_ms(&self) -> f64 {
        let n = self.runs.len().max(1) as f64;
        self.runs.iter().map(|r| r.response_ms.mean()).sum::<f64>() / n
    }

    /// Mean of the per-run drop percentages.
    pub fn mean_drop_percent(&self) -> f64 {
        let n = self.runs.len().max(1) as f64;
        self.runs.iter().map(RunResult::drop_percent).sum::<f64>() / n
    }

    /// Mean total transfer, kB.
    pub fn mean_total_kb(&self) -> f64 {
        let n = self.runs.len().max(1) as f64;
        self.runs.iter().map(RunResult::total_kb).sum::<f64>() / n
    }

    /// Total violations across every run (must be zero for SEVE).
    pub fn total_violations(&self) -> usize {
        self.runs.iter().map(|r| r.violations).sum()
    }
}

impl<'a, W: GameWorld, P: ProtocolSuite<W>> Simulation<'a, W, P> {
    /// Run `repeats` times with derived seeds, averaging the metrics.
    /// `make_workload` builds a fresh workload per run.
    pub fn run_repeated(
        &self,
        repeats: usize,
        mut make_workload: impl FnMut() -> Box<dyn Workload<W>>,
    ) -> AveragedResult {
        let runs = (0..repeats)
            .map(|i| {
                let mut cfg = self.cfg.clone();
                cfg.seed = cfg
                    .seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1);
                let sim = Simulation::new(Arc::clone(&self.world), self.suite, cfg)
                    .with_faults(self.faults.clone());
                let mut wl = make_workload();
                sim.run(wl.as_mut())
            })
            .collect();
        AveragedResult { runs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use seve_core::config::{ProtocolConfig, ServerMode};
    use seve_core::server::SeveSuite;
    use seve_world::worlds::dining::{DiningConfig, DiningWorkload, DiningWorld};

    fn small_cfg(moves: u32) -> SimConfig {
        SimConfig {
            moves_per_client: moves,
            ..SimConfig::default()
        }
    }

    fn run_mode(mode: ServerMode, philosophers: usize, moves: u32) -> RunResult {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(mode));
        let mut wl = DiningWorkload::new(&world);
        Simulation::new(world, &suite, small_cfg(moves)).run(&mut wl)
    }

    #[test]
    fn basic_mode_everyone_converges_and_is_consistent() {
        let r = run_mode(ServerMode::Basic, 6, 8);
        assert_eq!(r.submitted, 48);
        assert_eq!(r.violations, 0, "Theorem 1");
        assert_eq!(r.missing_read_evals, 0);
        assert_eq!(r.replay_divergences, 0);
        // Complete world: every stable replica is identical after drain.
        assert!(
            r.stable_digests.windows(2).all(|w| w[0] == w[1]),
            "basic-mode replicas must converge exactly"
        );
        // Response ≈ RTT (238 ms) plus small processing.
        assert!(r.response_ms.count() > 0);
        let mean = r.response_ms.mean();
        assert!(
            (230.0..400.0).contains(&mean),
            "basic response ≈ one round trip, got {mean}"
        );
    }

    #[test]
    fn incomplete_mode_is_consistent_and_installs() {
        let r = run_mode(ServerMode::Incomplete, 6, 8);
        assert_eq!(r.violations, 0, "Theorem 1");
        assert_eq!(r.replay_divergences, 0);
        assert!(r.server.installed > 0, "completions must install into ζ_S");
        assert!(r.committed_digest.is_some());
        let mean = r.response_ms.mean();
        assert!(
            (230.0..400.0).contains(&mean),
            "incomplete response ≈ one round trip, got {mean}"
        );
    }

    #[test]
    fn info_bound_meets_the_response_bound() {
        let r = run_mode(ServerMode::InfoBound, 16, 10);
        assert_eq!(r.violations, 0, "Theorem 1");
        assert_eq!(r.replay_divergences, 0);
        let bound = ProtocolConfig::default().response_bound_ms();
        let mean = r.response_ms.mean();
        // (1+ω)RTT plus tick/push discretization slack.
        assert!(
            mean <= bound + 120.0,
            "mean response {mean} must be near the (1+ω)RTT bound {bound}"
        );
        assert!(mean >= 230.0, "cannot beat the network, got {mean}");
    }

    #[test]
    fn run_repeated_averages_distinct_seeds() {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 6,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
        let sim = Simulation::new(Arc::clone(&world), &suite, small_cfg(5));
        let avg = sim.run_repeated(3, || Box::new(DiningWorkload::new(&world)));
        assert_eq!(avg.runs.len(), 3);
        assert_eq!(avg.total_violations(), 0);
        assert!(avg.mean_response_ms() > 200.0);
        // Distinct seeds ⇒ at least two runs differ somewhere.
        let distinct = avg
            .runs
            .windows(2)
            .any(|w| w[0].response_ms.samples() != w[1].response_ms.samples());
        assert!(distinct, "seed derivation must vary the stagger");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_mode(ServerMode::InfoBound, 8, 6);
        let b = run_mode(ServerMode::InfoBound, 8, 6);
        assert_eq!(a.response_ms.samples(), b.response_ms.samples());
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.stable_digests, b.stable_digests);
        assert_eq!(a.committed_digest, b.committed_digest);
    }

    #[test]
    fn heap_and_wheel_queues_drive_identical_runs() {
        // The timer wheel must pop the exact event sequence the heap
        // oracle does — same digests, same byte counts, same timings.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 8,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
        let run = |kind: EventQueueKind| {
            let mut wl = DiningWorkload::new(&world);
            let cfg = SimConfig {
                moves_per_client: 8,
                event_queue: kind,
                ..SimConfig::default()
            };
            Simulation::new(Arc::clone(&world), &suite, cfg).run(&mut wl)
        };
        let wheel = run(EventQueueKind::Wheel);
        let heap = run(EventQueueKind::Heap);
        assert_eq!(wheel.response_ms.samples(), heap.response_ms.samples());
        assert_eq!(wheel.total_bytes, heap.total_bytes);
        assert_eq!(wheel.total_msgs, heap.total_msgs);
        assert_eq!(wheel.stable_digests, heap.stable_digests);
        assert_eq!(wheel.committed_digest, heap.committed_digest);
        assert_eq!(wheel.duration, heap.duration);
    }

    #[test]
    fn synchronized_mode_fires_all_clients_together() {
        // stagger=false is the Section III-E adversary: with every grab on
        // the same tick, Algorithm 7 must drop some to break the ring
        // chain, while staggered submissions mostly slip through.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 24,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
        let run = |stagger: bool| {
            let mut wl = DiningWorkload::new(&world);
            let sim = SimConfig {
                moves_per_client: 10,
                stagger,
                ..SimConfig::default()
            };
            Simulation::new(Arc::clone(&world), &suite, sim).run(&mut wl)
        };
        let sync = run(false);
        let staggered = run(true);
        assert_eq!(sync.violations, 0);
        assert_eq!(staggered.violations, 0);
        assert!(
            sync.dropped > staggered.dropped,
            "synchronized grabs must force more chain-breaking: {} vs {}",
            sync.dropped,
            staggered.dropped
        );
    }

    #[test]
    fn gc_notices_bound_client_replay_logs() {
        // With a small gc_every, long runs must not accumulate unbounded
        // client logs (checked indirectly: the run completes and commits
        // everything; the log length itself is internal).
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 8,
            ..DiningConfig::default()
        }));
        let mut cfg = ProtocolConfig::with_mode(ServerMode::Incomplete);
        cfg.gc_every = 8;
        let suite = SeveSuite::new(cfg);
        let mut wl = DiningWorkload::new(&world);
        let sim = SimConfig {
            moves_per_client: 20,
            ..SimConfig::default()
        };
        let r = Simulation::new(world, &suite, sim).run(&mut wl);
        assert_eq!(r.violations, 0);
        assert!(r.server.installed > 100, "most actions committed");
    }

    #[test]
    fn first_bound_consistent_without_dropping() {
        let r = run_mode(ServerMode::FirstBound, 8, 6);
        assert_eq!(r.violations, 0);
        assert_eq!(r.dropped, 0, "first bound never drops");
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 8,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
        let mut wl_a = DiningWorkload::new(&world);
        let mut wl_b = DiningWorkload::new(&world);
        let plain = Simulation::new(Arc::clone(&world), &suite, small_cfg(6)).run(&mut wl_a);
        let faulted = Simulation::new(Arc::clone(&world), &suite, small_cfg(6))
            .with_faults(FaultPlan::none())
            .run(&mut wl_b);
        assert_eq!(plain.response_ms.samples(), faulted.response_ms.samples());
        assert_eq!(plain.total_bytes, faulted.total_bytes);
        assert_eq!(plain.total_msgs, faulted.total_msgs);
        assert_eq!(plain.stable_digests, faulted.stable_digests);
        assert_eq!(plain.committed_digest, faulted.committed_digest);
        assert_eq!(plain.duration, faulted.duration);
    }

    #[test]
    fn crashed_client_ends_quietly_and_survivors_converge() {
        // Basic mode: the world is complete, so surviving replicas must
        // agree exactly (incomplete modes keep legitimately partial
        // replicas, where digest equality is not the contract).
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 6,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
        let mut wl = DiningWorkload::new(&world);
        let plan = FaultPlan {
            crashes: vec![(ClientId(2), 3)],
            ..FaultPlan::default()
        };
        let r = Simulation::new(Arc::clone(&world), &suite, small_cfg(8))
            .with_faults(plan)
            .run(&mut wl);
        assert_eq!(r.violations, 0, "Theorem 1 among performed evaluations");
        assert_eq!(r.replay_divergences, 0);
        // The crashed client stopped after 3 submissions.
        assert_eq!(r.submitted, 5 * 8 + 3);
        // Survivors (all but index 2) still agree exactly.
        let survivors: Vec<u64> = r
            .stable_digests
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, &d)| d)
            .collect();
        assert!(
            survivors.windows(2).all(|w| w[0] == w[1]),
            "surviving replicas must converge"
        );
    }

    #[test]
    fn absorbed_faults_preserve_consistency_and_convergence() {
        // The protocol absorbs: any disorder on the up lane (arrival order
        // *is* serialization order, submissions dedup by action id,
        // completions are idempotent), and duplication on the down lane
        // (pushes dedup by queue position). Nothing is dropped, so
        // Theorem 1 and complete-world convergence must both survive.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 6,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
        let mut wl = DiningWorkload::new(&world);
        let plan = FaultPlan {
            up: FaultPolicy {
                duplicate: 0.2,
                reorder: 0.2,
                delay: 0.2,
                ..FaultPolicy::default()
            },
            down: FaultPolicy {
                duplicate: 0.2,
                ..FaultPolicy::default()
            },
            ..FaultPlan::default()
        };
        let r = Simulation::new(Arc::clone(&world), &suite, small_cfg(10))
            .with_faults(plan)
            .run(&mut wl);
        assert_eq!(r.violations, 0, "Theorem 1 under absorbed faults");
        assert_eq!(r.replay_divergences, 0);
        assert!(
            r.stable_digests.windows(2).all(|w| w[0] == w[1]),
            "replicas must converge despite up-lane disorder and duplication"
        );
    }

    #[test]
    fn unsupervised_down_lane_reordering_is_detected_by_the_oracle() {
        // Down-lane FIFO is load-bearing: the closure property guarantees
        // an action's support is *sent* before its dependents, so a
        // transport that inverts down-lane delivery breaks the premise a
        // replica's provisional evaluations rest on. With supervision off
        // (the PR-5 envelope) that is documented degradation — and the
        // consistency oracle must catch it, not paper over it.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 6,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
        let mut wl = DiningWorkload::new(&world);
        let plan = FaultPlan {
            down: FaultPolicy {
                reorder: 0.3,
                ..FaultPolicy::default()
            },
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            session: SessionParams::unsupervised(),
            ..small_cfg(10)
        };
        let r = Simulation::new(Arc::clone(&world), &suite, cfg)
            .with_faults(plan)
            .run(&mut wl);
        assert!(
            r.replay_rebuilds > 0,
            "reordered pushes must exercise out-of-order reconciliation"
        );
        assert!(
            r.violations > 0,
            "the oracle must detect evaluations whose support arrived late"
        );
    }

    #[test]
    fn supervised_down_lane_reordering_is_recovered() {
        // Same fault plan, supervision on (the default): the resequencer
        // restores down-lane FIFO before the replica sees a single frame,
        // so the run is indistinguishable from a clean one — bit-identical
        // digests, zero violations, zero rebuilds.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 6,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
        let plan = FaultPlan {
            down: FaultPolicy {
                reorder: 0.3,
                ..FaultPolicy::default()
            },
            ..FaultPlan::default()
        };
        let mut wl_clean = DiningWorkload::new(&world);
        let clean = Simulation::new(Arc::clone(&world), &suite, small_cfg(10)).run(&mut wl_clean);
        let mut wl = DiningWorkload::new(&world);
        let r = Simulation::new(Arc::clone(&world), &suite, small_cfg(10))
            .with_faults(plan)
            .run(&mut wl);
        assert_eq!(r.violations, 0, "supervision must absorb the reordering");
        assert_eq!(r.replay_divergences, 0);
        // Dining submissions are timing-sensitive (delayed deliveries shift
        // what each philosopher tries next), so the faulted run is a
        // *different* valid run — the contract here is convergence, not
        // bytewise identity with the clean schedule. The timing-insensitive
        // digest-identity cells live in tests/fault_matrix.rs.
        assert!(
            r.stable_digests.windows(2).all(|w| w[0] == w[1]),
            "replicas must converge despite down-lane reordering"
        );
        assert!(
            r.session.holds > 0,
            "the plan must actually reorder something"
        );
        assert_eq!(clean.session.coping(), 0, "clean runs cope with nothing");
    }
}
