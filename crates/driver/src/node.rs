//! The node driver: the one place that owns the scheduling every threaded
//! node needs.
//!
//! Before this layer existed the cadence logic lived twice — once in the
//! simulator's event loop and once, hand-rolled, in the TCP runtime. The
//! [`NodeDriver`] is the threaded half of the unification: the server's
//! τ-tick and ω·RTT push cycles, the client's move-period submission, the
//! drain and linger phases, and message dispatch into the engines, written
//! once against the [`Clock`] and transport traits. The TCP runtime and the
//! in-process backend both run these exact loops; only the transport
//! differs. (The simulator keeps its discrete-event structure in
//! [`crate::sim`].)
//!
//! Timer discipline: the server cycles use the **clamped** catch-up policy
//! (`next = now + period`) — a server descheduled by the OS resumes its
//! cadence from the present instead of firing a burst of make-up ticks.
//! The client move timer stays on the nominal grid: its submission quota is
//! part of the workload's definition.

use crate::clock::{Clock, WallClock};
use crate::report::{ClientReport, ServerReport};
use crate::timer::{MoveTimer, PeriodicTimer, Timer};
use crate::transport::{ClientEvent, ClientTransport, ServerEvent, ServerTransport};
use seve_core::engine::{ClientNode, ServerNode};
use seve_net::time::SimDuration;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::time::Duration;

/// Convert a wall-clock span to protocol microseconds.
fn to_sim(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// Hand one engine step's output to the transport — unless there is none:
/// an empty batch would still cost the transport a lock and a lane scan.
fn send_nonempty<U, D, T: ServerTransport<U, D>>(
    transport: &mut T,
    out: &[(seve_world::ids::ClientId, D)],
) -> Result<u64, T::Error> {
    if out.is_empty() {
        Ok(0)
    } else {
        transport.send_batch(out)
    }
}

/// Cadence parameters for driving one node (server or client side).
#[derive(Clone, Debug)]
pub struct NodeDriver {
    /// Server simulation tick τ.
    pub tick: Duration,
    /// Server push cycle (used only when the engine pushes).
    pub push: Duration,
    /// Client move-generation period.
    pub move_period: Duration,
    /// Client submission quota.
    pub moves: u32,
    /// Extra drain time beyond ten move periods before the client gives up
    /// waiting for its pending actions to resolve.
    pub drain_grace: Duration,
    /// How long the client lingers after its goodbye, relaying completions
    /// for other clients, before assuming the server is gone.
    pub linger: Duration,
    /// Fault injection: abort the client abruptly after this many
    /// submissions — no drain, no goodbye (Section III-C crash scenario).
    pub crash_after_moves: Option<u32>,
    /// Fault injection: partition the client's link for the given span
    /// after this many submissions. The supervised transport buffers
    /// up-traffic, loses down-traffic, then reconnects and resumes.
    pub partition_after_moves: Option<(u32, Duration)>,
}

impl Default for NodeDriver {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(50),
            push: Duration::from_millis(50),
            move_period: Duration::from_millis(300),
            moves: 0,
            drain_grace: Duration::from_secs(2),
            linger: Duration::from_secs(10),
            crash_after_moves: None,
            partition_after_moves: None,
        }
    }
}

impl NodeDriver {
    /// A driver for the server side with the given cycle periods.
    pub fn server(tick: Duration, push: Duration) -> Self {
        Self {
            tick,
            push,
            ..Self::default()
        }
    }

    /// A driver for a client submitting `moves` actions at `period`.
    pub fn client(moves: u32, period: Duration) -> Self {
        Self {
            moves,
            move_period: period,
            ..Self::default()
        }
    }

    /// Run `engine` over `transport` until all `n` clients have finished.
    ///
    /// One loop body, three steps: **wait** for the next tick/push
    /// deadline, **drain** everything the transport holds without blocking
    /// (`recv(Duration::ZERO)` until `Timeout`), **fire** the timers that
    /// are due. An engine step that produced nothing sends nothing.
    ///
    /// The wait is the one conditional. An engine that speaks only on its
    /// cycles (`push_period().is_some()`: submissions are queued silently
    /// and serialized at `tick`, whatever instant they were admitted)
    /// sleeps to the deadline, so the loop wakes once per cycle instead of
    /// once per message. An engine that answers submissions (the
    /// broadcast/closure baselines) blocks on the transport instead, so a
    /// reply still leaves in the iteration its submission arrived.
    ///
    /// Consequence for cycle-driven engines: an action's admission stamp,
    /// and a GC notice triggered by a completion, can trail the socket
    /// arrival by up to one cycle.
    pub fn run_server<W, S, T>(
        &self,
        mut engine: S,
        transport: &mut T,
        n: usize,
    ) -> Result<ServerReport, T::Error>
    where
        W: GameWorld,
        S: ServerNode<W>,
        T: ServerTransport<S::Up, S::Down>,
    {
        let clock = WallClock::new();
        let mut tick_t = PeriodicTimer::clamped(clock.now(), to_sim(self.tick));
        let pushes = engine.push_period().is_some();
        let mut push_t = PeriodicTimer::clamped(clock.now(), to_sim(self.push));
        let mut done = 0usize;
        let mut bytes_out = 0u64;
        let mut out: Vec<(seve_world::ids::ClientId, S::Down)> = Vec::new();

        while done < n {
            // Wait.
            let tick_next = tick_t.next_deadline().expect("clamped timers never end");
            let deadline = if pushes {
                tick_next.min(push_t.next_deadline().expect("clamped timers never end"))
            } else {
                tick_next
            };
            let mut event = if pushes {
                std::thread::sleep(clock.wait_until(deadline));
                transport.recv(Duration::ZERO)?
            } else {
                transport.recv(clock.wait_until(deadline))?
            };

            // Drain, for at most one tick: a peer that never lets the
            // inbound queue run dry must not starve the cycles.
            let drain_end = clock.now() + to_sim(self.tick);
            loop {
                match event {
                    ServerEvent::Msg(from, msg) => {
                        let now = clock.now();
                        out.clear();
                        engine.deliver(now, from, msg, &mut out);
                        bytes_out += send_nonempty(transport, &out)?;
                        if now >= drain_end {
                            break;
                        }
                    }
                    // The supervised transport absorbs `Gone` internally
                    // (resume window, then reap) and emits `Done` once per
                    // seat; a bare transport's `Gone` retires the seat too.
                    ServerEvent::Done(_) | ServerEvent::Gone(_) => done += 1,
                    ServerEvent::Timeout => break,
                }
                event = transport.recv(Duration::ZERO)?;
            }

            // Fire.
            let now = clock.now();
            if tick_t.due(now) {
                out.clear();
                engine.tick(now, &mut out);
                bytes_out += send_nonempty(transport, &out)?;
                tick_t.advance(clock.now());
            }
            if pushes && push_t.due(now) {
                // ThinPush shedding: while the transport is past its
                // egress high-water mark, skip whole push cycles — safe
                // because routing's `sent` tracking only advances on
                // messages actually handed to the transport.
                if !transport.overloaded() {
                    out.clear();
                    engine.push_tick(now, &mut out);
                    bytes_out += send_nonempty(transport, &out)?;
                }
                push_t.advance(clock.now());
            }
        }

        // End-of-run drain: routing policies flush queue tails on cycle
        // boundaries (e.g. the broadcast catch-up on tick), so a session
        // that ends right after the last submission would otherwise strand
        // the tail on the server. Fire one final cycle before Stop so
        // replicas that have stopped submitting still converge.
        let now = clock.now();
        out.clear();
        engine.tick(now, &mut out);
        bytes_out += send_nonempty(transport, &out)?;
        if pushes {
            out.clear();
            engine.push_tick(now, &mut out);
            bytes_out += send_nonempty(transport, &out)?;
        }

        transport.stop_all()?;
        // Fold the transport's wire-path work (invisible to the engine)
        // into the stage profile alongside the engine's logical counters.
        let wire = transport.egress_stats();
        let mut metrics = engine.metrics().clone();
        metrics.stage.pool_hits += wire.pool_hits;
        metrics.stage.writev_batches += wire.writev_batches;
        metrics.stage.pool_outstanding += wire.pool_outstanding;
        metrics.stage.session_retransmits += wire.session.retransmits;
        metrics.stage.session_acks += wire.session.acks;
        metrics.stage.session_reconnects += wire.session.reconnects;
        metrics.stage.session_reaps += wire.session.reaps;
        metrics.stage.session_sheds += wire.session.sheds;
        Ok(ServerReport {
            metrics,
            committed_digest: engine.committed().map(|s| s.digest()),
            bytes_out,
        })
    }

    /// Drive `engine` with `workload` over `transport`: submit one action
    /// per move period, apply whatever arrives in between, drain, say
    /// goodbye, then linger relaying completions until the server stops the
    /// session. With [`NodeDriver::crash_after_moves`] set, the client
    /// aborts mid-workload instead — the transport's disposal signals the
    /// loss to the server, as a dead socket would.
    pub fn run_client<W, C, T>(
        &self,
        mut engine: C,
        workload: &mut dyn Workload<W>,
        transport: &mut T,
    ) -> Result<ClientReport, T::Error>
    where
        W: GameWorld,
        C: ClientNode<W>,
        T: ClientTransport<C::Up, C::Down>,
    {
        let clock = WallClock::new();
        let id = engine.id();
        let mut mover = MoveTimer::new(clock.now(), to_sim(self.move_period), self.moves);
        let mut out: Vec<C::Up> = Vec::new();
        let mut bytes_out = 0u64;
        let mut crashed = false;

        // Phase 1: the workload. The move timer is checked explicitly
        // before blocking on the transport, so a steady stream of inbound
        // batches can never starve submissions.
        'workload: while let Some(deadline) = mover.next_deadline() {
            let now = clock.now();
            if now >= deadline {
                let seq = engine.next_seq();
                if let Some(action) =
                    workload.next_action(id, seq, engine.optimistic(), now.as_ms())
                {
                    out.clear();
                    engine.submit(now, action, &mut out);
                    for m in out.drain(..) {
                        bytes_out += transport.send(m)?;
                    }
                }
                mover.advance(now);
                if self.crash_after_moves.is_some_and(|k| mover.fired() >= k) {
                    crashed = true;
                    break 'workload;
                }
                if let Some((k, span)) = self.partition_after_moves {
                    if mover.fired() == k {
                        transport.partition(span)?;
                    }
                }
                continue;
            }
            match transport.recv(clock.wait_until(deadline))? {
                ClientEvent::Msg(msg) => {
                    out.clear();
                    engine.deliver(clock.now(), msg, &mut out);
                    for m in out.drain(..) {
                        bytes_out += transport.send(m)?;
                    }
                }
                ClientEvent::Stop | ClientEvent::Closed => break 'workload,
                ClientEvent::Timeout => {}
            }
        }

        if !crashed {
            // Phase 2: drain until our pending queue empties (or we give
            // up).
            let drain_deadline = clock.now() + to_sim(self.move_period * 10 + self.drain_grace);
            'drain: while engine.pending_len() > 0 && clock.now() < drain_deadline {
                match transport.recv(Duration::from_millis(50))? {
                    ClientEvent::Msg(msg) => {
                        out.clear();
                        engine.deliver(clock.now(), msg, &mut out);
                        for m in out.drain(..) {
                            bytes_out += transport.send(m)?;
                        }
                    }
                    ClientEvent::Stop | ClientEvent::Closed => break 'drain,
                    ClientEvent::Timeout => {}
                }
            }

            bytes_out += transport.finish()?;

            // Phase 3: keep applying traffic until the server stops us —
            // other clients may still need our completions.
            'linger: loop {
                match transport.recv(self.linger)? {
                    ClientEvent::Msg(msg) => {
                        out.clear();
                        engine.deliver(clock.now(), msg, &mut out);
                        for m in out.drain(..) {
                            bytes_out += transport.send(m)?;
                        }
                    }
                    ClientEvent::Stop | ClientEvent::Closed | ClientEvent::Timeout => break 'linger,
                }
            }
        }

        let stable_digest = engine.stable().digest();
        let metrics = std::mem::take(engine.metrics_mut());
        Ok(ClientReport {
            metrics,
            stable_digest,
            bytes_out,
            crashed,
            session: transport.session_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_core::metrics::ServerMetrics;
    use seve_net::time::{SimDuration, SimTime};
    use seve_world::ids::ClientId;
    use seve_world::state::WorldState;
    use seve_world::worlds::dining::DiningWorld;
    use std::collections::VecDeque;
    use std::convert::Infallible;
    use std::sync::{Arc, Mutex};

    /// A message that is just its number.
    #[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
    struct M(u32);

    /// What the engine and the transport saw, in the one order it happened.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Seen {
        Deliver(u32),
        Tick,
        Push,
        Sent(Vec<u32>),
    }

    type Log = Arc<Mutex<Vec<Seen>>>;

    const TICK_NEWS: u32 = 1000;

    /// Cycle-driven: silent on `deliver`, speaks on `tick`. Otherwise:
    /// echoes every delivery to its sender and has nothing to say on
    /// cycles — the two shapes `run_server` picks its wait from.
    struct ScriptedEngine {
        log: Log,
        cycle_driven: bool,
        metrics: ServerMetrics,
    }

    impl ServerNode<DiningWorld> for ScriptedEngine {
        type Up = M;
        type Down = M;

        fn deliver(
            &mut self,
            _now: SimTime,
            from: ClientId,
            msg: M,
            out: &mut Vec<(ClientId, M)>,
        ) -> u64 {
            self.log.lock().unwrap().push(Seen::Deliver(msg.0));
            if !self.cycle_driven {
                out.push((from, msg));
            }
            0
        }

        fn tick(&mut self, _now: SimTime, out: &mut Vec<(ClientId, M)>) -> u64 {
            self.log.lock().unwrap().push(Seen::Tick);
            if self.cycle_driven {
                out.push((ClientId(0), M(TICK_NEWS)));
            }
            0
        }

        fn push_tick(&mut self, _now: SimTime, _out: &mut Vec<(ClientId, M)>) -> u64 {
            self.log.lock().unwrap().push(Seen::Push);
            0
        }

        fn push_period(&self) -> Option<SimDuration> {
            self.cycle_driven.then(|| SimDuration::from_ms(2))
        }

        fn metrics_mut(&mut self) -> &mut ServerMetrics {
            &mut self.metrics
        }

        fn metrics(&self) -> &ServerMetrics {
            &self.metrics
        }

        fn committed(&self) -> Option<&WorldState> {
            None
        }
    }

    /// Inbound traffic in bursts: one burst is what one drain finds. A
    /// `recv` past the burst's end answers `Timeout` and arms the next
    /// burst. Every script ends in each client's goodbye.
    struct ScriptedTransport {
        bursts: VecDeque<VecDeque<ServerEvent<M>>>,
        log: Log,
        /// The timeout of every `recv`, in call order.
        waits: Vec<Duration>,
        empty_batches: usize,
        /// Never run dry until the engine has ticked this often, then say
        /// goodbye: a peer that floods the server.
        flood_until_ticks: Option<usize>,
        /// (ticks counted, log entries scanned for them) so far.
        ticks_seen: (usize, usize),
    }

    impl ScriptedTransport {
        fn new(log: &Log, bursts: Vec<Vec<ServerEvent<M>>>) -> Self {
            Self {
                bursts: bursts.into_iter().map(VecDeque::from).collect(),
                log: Arc::clone(log),
                waits: Vec::new(),
                empty_batches: 0,
                flood_until_ticks: None,
                ticks_seen: (0, 0),
            }
        }
    }

    impl ServerTransport<M, M> for ScriptedTransport {
        type Error = Infallible;

        fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<M>, Infallible> {
            self.waits.push(timeout);
            if let Some(ticks) = self.flood_until_ticks {
                assert!(
                    self.waits.len() < 20_000_000,
                    "the drain never yielded to the timers"
                );
                let seen = self.log.lock().unwrap();
                let (ticked, scanned) = &mut self.ticks_seen;
                *ticked += seen[*scanned..]
                    .iter()
                    .filter(|s| **s == Seen::Tick)
                    .count();
                *scanned = seen.len();
                if *ticked < ticks {
                    return Ok(ServerEvent::Msg(ClientId(0), M(0)));
                }
                // Fall through to the script: the goodbye.
                self.flood_until_ticks = None;
            }
            let burst = self.bursts.front_mut().expect("a goodbye ends the script");
            Ok(burst.pop_front().unwrap_or_else(|| {
                self.bursts.pop_front();
                ServerEvent::Timeout
            }))
        }

        fn send_batch(&mut self, out: &[(ClientId, M)]) -> Result<u64, Infallible> {
            if out.is_empty() {
                self.empty_batches += 1;
            }
            let sent = out.iter().map(|(_, m)| m.0).collect();
            self.log.lock().unwrap().push(Seen::Sent(sent));
            Ok(0)
        }

        fn stop_all(&mut self) -> Result<(), Infallible> {
            Ok(())
        }
    }

    fn engine(log: &Log, cycle_driven: bool) -> ScriptedEngine {
        ScriptedEngine {
            log: Arc::clone(log),
            cycle_driven,
            metrics: ServerMetrics::default(),
        }
    }

    fn msgs(range: std::ops::RangeInclusive<u32>) -> Vec<ServerEvent<M>> {
        range.map(|i| ServerEvent::Msg(ClientId(0), M(i))).collect()
    }

    #[test]
    fn cycle_driven_engine_wakes_once_per_cycle_and_drains_in_order() {
        let log = Log::default();
        // Nothing by the first deadline, six messages by the second, the
        // goodbye by the third.
        let mut transport = ScriptedTransport::new(
            &log,
            vec![vec![], msgs(1..=6), vec![ServerEvent::Done(ClientId(0))]],
        );
        let period = Duration::from_millis(2);
        NodeDriver::server(period, period)
            .run_server(engine(&log, true), &mut transport, 1)
            .unwrap();

        assert!(
            transport.waits.iter().all(Duration::is_zero),
            "a cycle-driven server never blocks on its transport"
        );
        assert_eq!(transport.empty_batches, 0, "nothing to say, nothing sent");
        let log = log.lock().unwrap();
        let first = log
            .iter()
            .position(|s| matches!(s, Seen::Deliver(_)))
            .expect("messages were delivered");
        assert!(
            log[..first].contains(&Seen::Tick),
            "the first wake found nothing and ticked: {log:?}"
        );
        let expect: Vec<Seen> = (1..=6).map(Seen::Deliver).collect();
        assert_eq!(
            log[first..first + 6],
            expect[..],
            "one drain, arrival order, no cycle in between"
        );
        assert!(
            log[first + 6..].contains(&Seen::Tick),
            "and the tick that serializes them follows"
        );
        assert!(log.contains(&Seen::Sent(vec![TICK_NEWS])));
    }

    #[test]
    fn answering_engine_replies_in_the_iteration_the_submission_arrived() {
        let log = Log::default();
        let mut bursts = vec![msgs(7..=7), msgs(8..=8)];
        bursts[1].push(ServerEvent::Done(ClientId(0)));
        let mut transport = ScriptedTransport::new(&log, bursts);
        // A tick far beyond the test: a loop that slept to its deadline
        // would never see the first message in time.
        let period = Duration::from_secs(60);
        let t0 = std::time::Instant::now();
        NodeDriver::server(period, period)
            .run_server(engine(&log, false), &mut transport, 1)
            .unwrap();
        assert!(t0.elapsed() < period / 2);

        assert!(
            !transport.waits[0].is_zero(),
            "the wait is the blocking recv"
        );
        assert_eq!(transport.empty_batches, 0);
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                Seen::Deliver(7),
                Seen::Sent(vec![7]),
                Seen::Deliver(8),
                Seen::Sent(vec![8]),
                // The end-of-run cycle; this engine has nothing to flush.
                Seen::Tick,
            ]
        );
    }

    #[test]
    fn a_flooding_peer_cannot_starve_the_cycles() {
        let log = Log::default();
        let mut transport =
            ScriptedTransport::new(&log, vec![vec![ServerEvent::Done(ClientId(0))]]);
        transport.flood_until_ticks = Some(3);
        let period = Duration::from_millis(1);
        NodeDriver::server(period, period)
            .run_server(engine(&log, true), &mut transport, 1)
            .unwrap();
        let log = log.lock().unwrap();
        assert!(log.iter().filter(|s| **s == Seen::Tick).count() >= 3);
    }
}
