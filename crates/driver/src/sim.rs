//! The discrete-event backend: one server + N clients over simulated links.
//!
//! Reproduces the paper's testbed loop (Section V-A): every client submits
//! one action per move period (Table I: 300 ms), the server runs its tick
//! (τ) and push (ω·RTT) cycles, and all messages traverse
//! latency/bandwidth-modeled links, each occupying its link for the bytes
//! the wire codec writes for it ([`wire::encoded_len`]). Machines process
//! one event at a time ([`crate::machine::Machine`]); events that find
//! their machine busy are deferred, which is how compute saturation turns
//! into response-time collapse (Figure 6).
//!
//! The harness is generic over [`ProtocolSuite`]: SEVE's four variants and
//! every baseline run under the identical workload, network, and cost
//! model — the apples-to-apples requirement of the evaluation. It builds
//! every engine with [`ProtocolSuite::build_metered`] and
//! [`SimConfig::cost`]: the simulator is the one harness that prices work.
//!
//! This loop is the simulator substrate of the unified driver layer.
//! [`Simulation::run`] sets up, pops every event in time order (events for
//! the same instant in the order they were filed) into the one step that
//! handles its kind, and collects. A message reaching a node joins its inbox
//! and the node serves; a wake only serves. Every machine, the server and
//! each client alike, files at most one wake per instant. Its timers are
//! [`crate::timer`]'s *nominal* discipline, it takes the same [`FaultPlan`]
//! the threaded backends do, and its session halves are the threaded
//! supervisor's own [`SendWindow`] and its in-sequence delivery rule. A run
//! is a deterministic function of its configuration, pinned by the golden
//! digests in `tests/golden_equivalence.rs`.

use crate::fault::{FaultPlan, FaultyLink, LinkPartition};
use crate::machine::Machine;
use crate::session::{SendWindow, SessionParams, SessionStats};
use crate::timer::{MoveTimer, PeriodicTimer, Timer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seve_core::consistency::ConsistencyOracle;
use seve_core::cost::{CostModel, Meter};
use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve_core::metrics::ServerMetrics;
use seve_net::event::EventQueue;
use seve_net::link::Link;
use seve_net::stats::Summary;
use seve_net::time::{SimDuration, SimTime};
use seve_net::wire;
use seve_world::ids::ClientId;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::collections::VecDeque;
use std::sync::Arc;

/// Testbed parameters. Defaults are Table I, and [`CostModel`]'s
/// calibration for what the simulated machines' work costs.
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
    /// What the simulated machines' work costs. The simulator installs it
    /// on every engine it builds; it is the only harness that prices work,
    /// so `client_compute_us` and `server_compute_us` are 0 everywhere
    /// else.
    pub cost: CostModel,
    /// Stagger the clients' move timers (the realistic default). `false`
    /// fires every client on the same instants — the synchronized-tick
    /// adversary of Section III-E ("if each of them tries to pick up the
    /// two forks at the same tick").
    pub stagger: bool,
    /// Session supervision (acked resume protocol). The simulator reads
    /// only `liveness`, the time a crashed client's lane waits for a resume
    /// before it is reaped. It ignores `ring`, `ack_delay`, `shed`,
    /// `heartbeat`, `backoff` and `seed`: acks are instantaneous (the window
    /// trims the moment the client accepts a frame in order), so no ring
    /// fills, no client goes silent and no heartbeat is needed, and a
    /// partition heals on its schedule rather than by redialing. Frames are
    /// resent only at a heal, so a fault-free run schedules not one session
    /// event and stays bit-identical to the golden digests.
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
            cost: CostModel::default(),
            stagger: true,
            session: SessionParams::default(),
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug, Default)]
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
    /// Total evaluations across every client replica, re-evaluations
    /// included: what the cost model priced on the clients.
    pub evaluations: u64,
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
    /// Events popped from the queue: the simulator's own work, which grows
    /// linearly with the messages carried.
    pub events: u64,
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
    /// Client `.0`'s move timer fires.
    Move(usize),
    /// A message arriving at the server from client `.0`.
    Up(usize, U),
    /// A message arriving at client `.0`; `.1` is its down-lane sequence
    /// number (1-based).
    Down(usize, u64, D),
    /// The server machine may be free: serve its inbox.
    WakeServer,
    /// Client `.0`'s machine may be free: serve its inbox.
    WakeClient(usize),
    /// One of the server's periodic cycles is due.
    Cycle(Cycle),
    /// End of client `.0`'s link partition: reconnect, resume, flush.
    Heal(usize),
    /// Liveness deadline for crashed client `.0`: reap its lane.
    Reap(usize),
}

/// The server's two periodic cycles, each on the nominal grid of its own
/// [`PeriodicTimer`].
#[derive(Clone, Copy)]
enum Cycle {
    /// The simulation tick τ (Algorithm 7).
    Tick,
    /// The ω·RTT push cycle (First / Information Bound servers only).
    Push,
}

/// The event queue, with the scratch the links report arrivals into.
struct Queue<U, D> {
    events: EventQueue<Ev<U, D>>,
    arrivals: Vec<SimTime>,
}

impl<U, D> Queue<U, D> {
    fn schedule(&mut self, at: SimTime, ev: Ev<U, D>) {
        self.events.schedule(at, ev);
    }

    /// File `wake`, a machine's wake event, at `at` unless the one
    /// `pending` for that machine is already for `at`. Wakes are filed only
    /// at the machine's `free_at`, which never moves back, so the last one
    /// filed is the only one a new one can repeat.
    fn wake(&mut self, pending: &mut Option<SimTime>, at: SimTime, wake: Ev<U, D>) {
        if *pending != Some(at) {
            *pending = Some(at);
            self.events.schedule(at, wake);
        }
    }

    /// Put up-lane `msg` from client `c` on `link` at `at`, charged its
    /// encoded length, and file its arrival at each faulted arrival time:
    /// none for a drop, two for a duplicate. The single-arrival path
    /// (always taken with no faults) moves the message without cloning, so
    /// the schedule is exactly the pre-fault harness's.
    fn transmit_up(&mut self, link: &mut FaultyLink, at: SimTime, c: usize, msg: U)
    where
        U: serde::Serialize + Clone,
    {
        link.send(at, wire::encoded_len(&msg), &mut self.arrivals);
        if let [t] = self.arrivals[..] {
            self.events.schedule(t, Ev::Up(c, msg));
        } else {
            for &t in &self.arrivals {
                self.events.schedule(t, Ev::Up(c, msg.clone()));
            }
        }
    }

    /// Put down-lane frame `seq` for client `c` on `link` at `at`, charged
    /// its encoded length. A live down lane neither loses, duplicates nor
    /// reorders.
    fn transmit_down(&mut self, link: &mut Link, at: SimTime, c: usize, seq: u64, msg: D)
    where
        D: serde::Serialize,
    {
        let arrives = link.send(at, wire::encoded_len(&msg));
        self.events.schedule(arrives, Ev::Down(c, seq, msg));
    }
}

/// One client seat: the engine and its machine, its two links, both halves
/// of its session, and its fault schedule.
struct Lane<C, U, D> {
    node: C,
    mach: Machine,
    moves: MoveTimer,
    up: FaultyLink,
    down: Link,
    /// Down frames delivered in sequence, waiting for the machine.
    inbox: VecDeque<D>,
    /// The instant of the `WakeClient` filed and not yet popped, if any.
    wake: Option<SimTime>,
    /// The server's resend ring for this lane. Acks are instantaneous
    /// (both halves live in this address space): the ring trims the moment
    /// the client delivers a frame, at zero bytes, events and time.
    window: SendWindow<D>,
    /// The client's last delivered sequence number: it delivers only
    /// `delivered + 1`.
    delivered: u64,
    /// Ups produced while the link is dark; they cross (and count) at heal.
    held_up: Vec<U>,
    crash_after: Option<u32>,
    partition: Option<LinkPartition>,
    /// End of the current partition, while the link is dark.
    dark_until: Option<SimTime>,
    crashed: bool,
    reaped: bool,
}

/// The state of one run. Every event kind is one step (one method).
struct Run<'a, W: GameWorld, P: ProtocolSuite<W>> {
    workload: &'a mut dyn Workload<W>,
    queue: Queue<P::Up, P::Down>,
    server: P::Server,
    server_mach: Machine,
    /// Ups that reached the server, in arrival order. A message that finds
    /// the machine busy waits here: rescheduling the event instead would
    /// let a later arrival overtake it on a tie, which no TCP stream does.
    server_inbox: VecDeque<(usize, P::Up)>,
    /// The instant of the `WakeServer` filed and not yet popped, if any.
    server_wake: Option<SimTime>,
    tick: PeriodicTimer,
    push: Option<PeriodicTimer>,
    lanes: Vec<Lane<P::Client, P::Up, P::Down>>,
    liveness: SimDuration,
    stats: SessionStats,
    events: u64,
    end_time: SimTime,
    // Scratch buffers, reused by every step.
    up_out: Vec<P::Up>,
    down_out: Vec<(ClientId, P::Down)>,
}

impl<'a, W: GameWorld, P: ProtocolSuite<W>> Run<'a, W, P> {
    fn new(sim: &Simulation<'_, W, P>, workload: &'a mut dyn Workload<W>) -> Self {
        let (cfg, faults) = (&sim.cfg, &sim.faults);
        let n = sim.world.num_clients();
        let (server, clients) = sim
            .suite
            .build_metered(Arc::clone(&sim.world), Meter::priced(cfg.cost));
        assert_eq!(clients.len(), n);

        // Stagger the move timers: clients are not synchronized, and "the
        // random order of arrival of actions at the server will ensure
        // fairness" (Section III-E).
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let first_moves: Vec<SimTime> = (0..n)
            .map(|_| {
                if cfg.stagger {
                    SimTime(rng.gen_range(0..cfg.move_period.as_micros().max(1)))
                } else {
                    SimTime::ZERO
                }
            })
            .collect();
        let moves = cfg.moves_per_client.saturating_sub(1) as f64;
        let span = cfg.move_period.scaled(moves);
        let last_move = first_moves
            .iter()
            .max()
            .map_or(SimTime::ZERO, |&t| t + span);
        let hard_end = last_move + cfg.drain;

        let link = || Link::new(cfg.latency, cfg.bandwidth_bps);
        let lanes: Vec<_> = clients
            .into_iter()
            .zip(first_moves)
            .enumerate()
            .map(|(i, (node, first))| {
                let id = ClientId(i as u16);
                Lane {
                    node,
                    mach: Machine::new(),
                    moves: MoveTimer::new(first, cfg.move_period, cfg.moves_per_client),
                    up: FaultyLink::new(link(), faults.up.clone(), FaultPlan::up_stream(i)),
                    down: link(),
                    inbox: VecDeque::new(),
                    wake: None,
                    window: SendWindow::new(),
                    delivered: 0,
                    held_up: Vec::new(),
                    crash_after: faults.crash_for(id),
                    partition: faults.partition_for(id),
                    dark_until: None,
                    crashed: false,
                    reaped: false,
                }
            })
            .collect();

        let mut queue = Queue {
            events: EventQueue::new(),
            arrivals: Vec::new(),
        };
        for (client, lane) in lanes.iter().enumerate() {
            if let Some(at) = lane.moves.next_deadline() {
                queue.schedule(at, Ev::Move(client));
            }
        }
        let cycle = |p: SimDuration| PeriodicTimer::nominal(SimTime::ZERO + p, p, hard_end);
        let tick = cycle(cfg.tick);
        queue.schedule(SimTime::ZERO + cfg.tick, Ev::Cycle(Cycle::Tick));
        let push = server.push_period().map(cycle);
        if let Some(p) = &push {
            queue.schedule(SimTime::ZERO + p.period(), Ev::Cycle(Cycle::Push));
        }

        Self {
            workload,
            queue,
            server,
            server_mach: Machine::new(),
            server_inbox: VecDeque::new(),
            server_wake: None,
            tick,
            push,
            lanes,
            liveness: SimDuration::from_micros(cfg.session.liveness.as_micros() as u64),
            stats: SessionStats::default(),
            events: 0,
            end_time: SimTime::ZERO,
            up_out: Vec::new(),
            down_out: Vec::new(),
        }
    }

    /// Client `c`'s move timer: submit one action, then crash or go dark if
    /// the fault schedule says so, else re-arm the timer.
    fn on_move(&mut self, c: usize, now: SimTime) {
        let lane = &mut self.lanes[c];
        if lane.crashed || lane.reaped {
            return;
        }
        if lane.mach.is_busy(now) {
            self.queue.schedule(lane.mach.free_at(), Ev::Move(c));
            return;
        }
        let mut out = std::mem::take(&mut self.up_out);
        let (id, seq) = (ClientId(c as u16), lane.node.next_seq());
        let view = lane.node.optimistic();
        if let Some(action) = self.workload.next_action(id, seq, view, now.as_ms()) {
            let cost = lane.node.submit(now, action, &mut out);
            let done = lane.mach.run(now, cost);
            self.send_up(c, &mut out, done);
        }
        self.up_out = out;

        let lane = &mut self.lanes[c];
        let next = lane.moves.advance(now);
        let made = lane.moves.fired();
        if lane.crash_after.is_some_and(|k| made >= k) {
            // An abrupt disconnect: traffic it already sent still arrives (a
            // dead socket does not recall transmitted bytes), traffic to it
            // is discarded, and the lane stays up for the resume window.
            lane.crashed = true;
            lane.inbox.clear();
            self.queue.schedule(now + self.liveness, Ev::Reap(c));
            return;
        }
        if let Some(p) = lane.partition.filter(|p| p.after_submissions == made) {
            let until = now + SimDuration::from_micros(p.duration.as_micros() as u64);
            lane.dark_until = Some(until);
            self.queue.schedule(until, Ev::Heal(c));
        }
        if let Some(at) = next {
            self.queue.schedule(at, Ev::Move(c));
        }
    }

    /// Send `out` (drained) up `c`'s link at `done`; a dark link holds it
    /// until the heal.
    fn send_up(&mut self, c: usize, out: &mut Vec<P::Up>, done: SimTime) {
        let lane = &mut self.lanes[c];
        for msg in out.drain(..) {
            if lane.dark_until.is_some() {
                lane.held_up.push(msg);
            } else {
                self.queue.transmit_up(&mut lane.up, done, c, msg);
            }
        }
    }

    /// Send `out` (drained) down its lanes at `done`: each frame takes the
    /// lane's next sequence number and a slot in its resend window. A
    /// reaped lane is gone: nothing is sent, nothing buffers.
    fn send_down(&mut self, out: &mut Vec<(ClientId, P::Down)>, done: SimTime) {
        for (dest, msg) in out.drain(..) {
            let c = dest.index();
            let lane = &mut self.lanes[c];
            if lane.reaped {
                continue;
            }
            let seq = lane.window.push(msg.clone());
            self.queue.transmit_down(&mut lane.down, done, c, seq, msg);
        }
    }

    /// A message reaches the server: queue it, then serve.
    fn on_up(&mut self, c: usize, msg: P::Up, now: SimTime) {
        if self.lanes[c].reaped {
            // A reaped lane swallows late traffic.
            return;
        }
        self.server_inbox.push_back((c, msg));
        self.serve_server(now);
    }

    /// Deliver the server inbox's head if the machine is free, and make
    /// sure a wake is filed for whatever must wait.
    fn serve_server(&mut self, now: SimTime) {
        if self.server_inbox.is_empty() {
            return;
        }
        if self.server_mach.is_busy(now) {
            let at = self.server_mach.free_at();
            self.queue.wake(&mut self.server_wake, at, Ev::WakeServer);
            return;
        }
        let (from, msg) = self.server_inbox.pop_front().expect("checked non-empty");
        let mut out = std::mem::take(&mut self.down_out);
        let cost = self
            .server
            .deliver(now, ClientId(from as u16), msg, &mut out);
        let done = self.server_mach.run(now, cost);
        self.send_down(&mut out, done);
        self.down_out = out;
        if !self.server_inbox.is_empty() {
            self.queue.wake(&mut self.server_wake, done, Ev::WakeServer);
        }
    }

    /// A down frame reaches client `c`: deliver it if it is the next in
    /// sequence, trim the resend window to it, and serve it.
    fn on_down(&mut self, c: usize, seq: u64, msg: P::Down, now: SimTime) {
        let lane = &mut self.lanes[c];
        if lane.crashed || lane.reaped || lane.dark_until.is_some_and(|t| now < t) {
            // Into a dark link the frame is lost; the resume at heal
            // resends it.
            return;
        }
        if seq != lane.delivered + 1 {
            // Past the gap a partition left, or already delivered: the
            // resume's go-back-N brings it again, in order.
            self.stats.dups_dropped += 1;
            return;
        }
        lane.delivered = seq;
        self.stats.acks += u64::from(lane.window.ack(seq));
        lane.inbox.push_back(msg);
        self.serve_client(c, now);
    }

    /// Deliver client `c`'s inbox head if its machine is free, and make
    /// sure a wake is filed for whatever must wait.
    fn serve_client(&mut self, c: usize, now: SimTime) {
        let lane = &mut self.lanes[c];
        if lane.crashed || lane.reaped || lane.inbox.is_empty() {
            return;
        }
        if lane.mach.is_busy(now) {
            let at = lane.mach.free_at();
            self.queue.wake(&mut lane.wake, at, Ev::WakeClient(c));
            return;
        }
        let msg = lane.inbox.pop_front().expect("checked non-empty");
        let mut out = std::mem::take(&mut self.up_out);
        let cost = lane.node.deliver(now, msg, &mut out);
        let done = lane.mach.run(now, cost);
        self.send_up(c, &mut out, done);
        self.up_out = out;
        let lane = &mut self.lanes[c];
        if !lane.inbox.is_empty() {
            self.queue.wake(&mut lane.wake, done, Ev::WakeClient(c));
        }
    }

    /// One server cycle (tick or push) if the machine is free, else retry
    /// when it frees; the next firing stays on the cycle's nominal grid.
    fn on_cycle(&mut self, cycle: Cycle, now: SimTime) {
        if self.server_mach.is_busy(now) {
            self.queue
                .schedule(self.server_mach.free_at(), Ev::Cycle(cycle));
            return;
        }
        let mut out = std::mem::take(&mut self.down_out);
        let (cost, timer) = match cycle {
            Cycle::Tick => (self.server.tick(now, &mut out), &mut self.tick),
            Cycle::Push => (
                self.server.push_tick(now, &mut out),
                self.push.as_mut().expect("filed only with a period"),
            ),
        };
        let next = timer.advance(now);
        let done = self.server_mach.run(now, cost);
        self.send_down(&mut out, done);
        self.down_out = out;
        if let Some(at) = next {
            self.queue.schedule(at, Ev::Cycle(cycle));
        }
    }

    /// Go-back-N: resend every unacked frame on `c`'s lane.
    fn resend_window(&mut self, c: usize, now: SimTime) {
        let lane = &mut self.lanes[c];
        self.stats.retransmits += lane.window.len() as u64;
        for (seq, msg) in lane.window.frames() {
            self.queue
                .transmit_down(&mut lane.down, now, c, *seq, msg.clone());
        }
    }

    /// A partition ends: the client resumes from its cumulative ack (the
    /// server resends exactly the frames past it; delivered frames are
    /// never replayed), then flushes the ups it held through the dark.
    fn on_heal(&mut self, c: usize, now: SimTime) {
        let lane = &mut self.lanes[c];
        if lane.crashed || lane.reaped {
            return;
        }
        lane.dark_until = None;
        let mut held = std::mem::take(&mut lane.held_up);
        self.stats.reconnects += 1;
        self.resend_window(c, now);
        self.send_up(c, &mut held, now);
    }

    /// Release lane `c` and every buffer it pins: a crashed client's
    /// liveness deadline expired with no resume.
    fn reap(&mut self, c: usize) {
        let lane = &mut self.lanes[c];
        if lane.reaped {
            return;
        }
        lane.reaped = true;
        lane.window.clear();
        lane.inbox.clear();
        lane.held_up.clear();
        self.stats.reaps += 1;
    }

    /// Fold the engines, links and counters into the run's metrics.
    fn finish(mut self, protocol: &str) -> RunResult {
        let duration = self.end_time - SimTime::ZERO;
        let mut server = self.server.metrics().clone();
        server.stage.session_retransmits += self.stats.retransmits;
        server.stage.session_acks += self.stats.acks;
        server.stage.session_reconnects += self.stats.reconnects;
        server.stage.session_reaps += self.stats.reaps;
        server.stage.session_sheds += self.stats.sheds;
        let mut r = RunResult {
            protocol: protocol.to_string(),
            clients: self.lanes.len(),
            server_compute_us: server.compute_us,
            server_utilization: self.server_mach.utilization(duration),
            server,
            committed_digest: self.server.committed().map(|s| s.digest()),
            duration,
            events: self.events,
            ..RunResult::default()
        };
        let mut oracle = ConsistencyOracle::new();
        for lane in &mut self.lanes {
            r.stable_digests.push(lane.node.stable().digest());
            let m = lane.node.metrics_mut();
            r.response_ms.merge(&m.response_ms);
            r.drop_notice_ms.merge(&m.drop_notice_ms);
            r.submitted += m.submitted;
            r.dropped += m.dropped;
            r.client_compute_us += m.compute_us;
            r.evaluations += m.evaluations;
            r.replay_divergences += m.replay_divergences;
            r.replay_rebuilds += m.replay_rebuilds;
            r.replay_entries_replayed += m.replay_entries_replayed;
            r.replay_checkpoint_hits += m.replay_checkpoint_hits;
            r.replay_commute_hits += m.replay_commute_hits;
            for rec in m.take_eval_records() {
                r.missing_read_evals += u64::from(rec.missing_reads > 0);
                oracle.observe(&rec);
            }
            r.server_up_bytes += lane.up.link().bytes_sent();
            r.server_down_bytes += lane.down.bytes_sent();
            r.total_msgs += lane.up.link().msgs_sent() + lane.down.msgs_sent();
        }
        r.total_bytes = r.server_up_bytes + r.server_down_bytes;
        r.violations = oracle.violations().len();
        r.evals_checked = oracle.records();
        r.session = self.stats;
        r
    }
}

/// A machine's wake for `now` popped: it is no longer pending.
fn woken(pending: &mut Option<SimTime>, now: SimTime) {
    if *pending == Some(now) {
        *pending = None;
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

    /// Run to completion with the given workload, returning all metrics:
    /// set up, pop every event in time order (same-instant events in the
    /// order they were filed) into its one step, collect.
    pub fn run(&self, workload: &mut dyn Workload<W>) -> RunResult {
        let mut run = Run::<W, P>::new(self, workload);
        while let Some((now, ev)) = run.queue.events.pop() {
            run.events += 1;
            run.end_time = now;
            match ev {
                Ev::Move(c) => run.on_move(c, now),
                Ev::Up(c, msg) => run.on_up(c, msg, now),
                Ev::Down(c, seq, msg) => run.on_down(c, seq, msg, now),
                Ev::WakeServer => {
                    woken(&mut run.server_wake, now);
                    run.serve_server(now);
                }
                Ev::WakeClient(c) => {
                    woken(&mut run.lanes[c].wake, now);
                    run.serve_client(c, now);
                }
                Ev::Cycle(cycle) => run.on_cycle(cycle, now),
                Ev::Heal(c) => run.on_heal(c, now),
                Ev::Reap(c) => run.reap(c),
            }
        }
        run.finish(self.suite.name())
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPolicy;
    use seve_core::config::{ProtocolConfig, ServerMode};
    use seve_core::server::SeveSuite;
    use seve_world::worlds::dining::{DiningConfig, DiningWorkload, DiningWorld};
    use std::time::Duration;

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
        // The protocol absorbs any disorder on the up lane (arrival order
        // *is* serialization order, submissions dedup by action id,
        // completions are idempotent), and the session recovers a
        // connection cut. Nothing is dropped, so Theorem 1 and
        // complete-world convergence must both survive.
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
            partitions: vec![cut(3, 4)],
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
    fn a_saturated_server_costs_events_linear_in_messages() {
        // 20 ms a message against 24 philosophers moving every 300 ms: the
        // offered load is several times what the server can serve, so its
        // inbox backs up the way Central's does in Figure 6. One server
        // wake per instant keeps the events a message costs independent of
        // that backlog.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 24,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
        let mut wl = DiningWorkload::new(&world);
        let mut sim = small_cfg(20);
        sim.cost.msg_cost_us = 20_000;
        let r = Simulation::new(world, &suite, sim).run(&mut wl);
        assert!(
            r.server_utilization > 0.9,
            "the server must be saturated: {}",
            r.server_utilization
        );
        // Measured: 4 076 events for 1 011 messages. A wake filed per
        // arrival instead pops 223 029.
        assert!(
            r.events <= 6 * r.total_msgs,
            "{} events for {} messages",
            r.events,
            r.total_msgs
        );
    }

    /// A connection cut: client `c`'s link goes dark for 60 ms, half a
    /// one-way latency, after its `after`-th submission. Frames sent just
    /// before it start arriving again after the heal, past the gap the cut
    /// left.
    fn cut(c: u16, after: u32) -> LinkPartition {
        LinkPartition {
            client: ClientId(c),
            after_submissions: after,
            duration: Duration::from_millis(60),
        }
    }

    #[test]
    fn supervised_down_lane_reordering_is_recovered() {
        // Down-lane FIFO is load-bearing: the closure property guarantees
        // an action's support is *sent* before its dependents. A cut loses
        // frames while later ones are still in flight, so those arrive out
        // of order, past the gap. The client drops them until the resume's
        // go-back-N refills the gap, so no evaluation runs on support that
        // arrived late.
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 6,
            ..DiningConfig::default()
        }));
        let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
        let plan = FaultPlan {
            partitions: vec![cut(1, 3), cut(4, 6)],
            ..FaultPlan::default()
        };
        let mut wl_clean = DiningWorkload::new(&world);
        let clean = Simulation::new(Arc::clone(&world), &suite, small_cfg(10)).run(&mut wl_clean);
        let mut wl = DiningWorkload::new(&world);
        let r = Simulation::new(Arc::clone(&world), &suite, small_cfg(10))
            .with_faults(plan)
            .run(&mut wl);
        assert_eq!(r.violations, 0, "supervision must recover the cuts");
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
            r.session.dups_dropped > 0,
            "the cuts must leave frames arriving past a gap"
        );
        assert_eq!(r.session.reconnects, 2);
        assert_eq!(clean.session.coping(), 0, "clean runs cope with nothing");
    }
}
