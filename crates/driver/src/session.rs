//! Session supervision: sequence numbers, delayed cumulative acks, resume
//! after a lost connection, liveness reaping, and overload shedding.
//!
//! The protocol engines assume a reliable FIFO down-lane and clients that
//! say goodbye (the replay log reconciles *out-of-order item arrival*, not
//! transport loss). Every substrate SEVE runs on is a stream — TCP or an
//! in-memory pipe under `seve-rt`'s lanes — which already orders and
//! retransmits inside a live connection. What a stream can lose is the
//! unacked tail of a connection that dies: a partition, a reset, a crash or
//! a reap (DESIGN.md §16.0). This module recovers exactly that, and only by
//! resume, as a pair of transport decorators driven by the unchanged
//! [`crate::node::NodeDriver`] loops:
//!
//! * [`SupervisedServerTransport`] — sequence-numbers every down-lane
//!   message and keeps it in a bounded per-client resend ring until the
//!   client acks it; answers a [`SessionUp::Resume`] by resending every
//!   frame past the client's last ack (go-back-N); reaps lanes whose client
//!   vanished (detached past `liveness`) or stopped answering (frames owed
//!   and nothing heard for `liveness`); and evicts a client whose ring
//!   crosses its high-water mark (`ring`), so one stuck peer cannot pin
//!   server memory.
//! * [`SupervisedClientTransport`] — delivers a frame only if it is the
//!   next in sequence and drops anything else (after a resume the server
//!   resends it in order), acknowledges cumulatively and late (one
//!   [`SessionUp::Ack`] per `ack_delay` or per `ring / 8` frames, whichever
//!   comes first), sends heartbeats while idle, and — after a link
//!   partition — reconnects under seeded exponential [`Backoff`] and
//!   resumes with the session token and the last delivered sequence number,
//!   so the server resends exactly the frames the client missed.
//!
//! Resent bytes are wire-path overhead, not protocol traffic: they are
//! excluded from the driver's byte accounting (which therefore stays
//! comparable with a fault-free run) and surface in [`SessionStats`]
//! instead, which flows through the stage profile into every report.
//!
//! Fault-free sessions are pass-through for the engines: nothing is resent
//! and every counter except `acks` stays zero. The *byte accounting* counts
//! the envelopes that carry engine messages ([`SessionUp::Msg`],
//! [`SessionDown::Seq`]) at their encoded size, header included, and leaves
//! control frames out — the simulator models acks as free, which is not the
//! socket's truth. On TCP an ack is a frame of its own: an encode and a
//! `write` syscall on the client, a `read` and a decode on the server. That
//! is why acks are cumulative *and delayed*: the cost is per ack frame, not
//! per acknowledged frame.

use crate::fault::splitmix64;
use crate::transport::{ClientEvent, ClientTransport, EgressStats, ServerEvent, ServerTransport};
use serde::{Deserialize, Serialize};
use seve_core::engine::ShareKey;
use seve_world::ids::ClientId;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// The session token a client presents when resuming: a pure function of
/// (session seed, client id), so both sides derive it independently and a
/// resume from the wrong peer (or the wrong session) is rejected.
pub fn session_token(seed: u64, id: ClientId) -> u64 {
    splitmix64(seed ^ 0x5E55_1014_u64.wrapping_mul(id.0 as u64 + 1)).max(1)
}

/// Exponential-backoff shape for the reconnect loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffParams {
    /// First delay.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Attempts before [`Backoff::next`] returns
    /// [`RetryBudgetExhausted`].
    pub budget: u32,
}

impl Default for BackoffParams {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
            budget: 8,
        }
    }
}

/// The reconnect retry budget ran out. A typed, recoverable condition:
/// the supervised client maps it to [`ClientEvent::Closed`], never a
/// panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryBudgetExhausted {
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for RetryBudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retry budget exhausted after {} attempts", self.attempts)
    }
}

impl std::error::Error for RetryBudgetExhausted {}

/// A seeded exponential-backoff schedule: `min(cap, base·2^k)` scaled by a
/// deterministic jitter factor in `[0.5, 1.0)`. Same seed, same schedule —
/// chaos runs replay exactly.
#[derive(Clone, Debug)]
pub struct Backoff {
    params: BackoffParams,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule with `params`, jittered from `seed`.
    pub fn new(params: BackoffParams, seed: u64) -> Self {
        Self {
            params,
            seed,
            attempt: 0,
        }
    }

    /// The next delay, or the typed exhaustion error once the budget is
    /// spent. (Named to mirror a schedule, not `Iterator`: the error-on-
    /// exhaustion contract doesn't fit `Option`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Duration, RetryBudgetExhausted> {
        if self.attempt >= self.params.budget {
            return Err(RetryBudgetExhausted {
                attempts: self.attempt,
            });
        }
        let exp = self
            .params
            .base
            .saturating_mul(1u32 << self.attempt.min(20))
            .min(self.params.cap);
        let draw = splitmix64(self.seed ^ (self.attempt as u64 + 1));
        let jitter = 0.5 + 0.5 * ((draw >> 11) as f64 / (1u64 << 53) as f64);
        self.attempt += 1;
        Ok(exp.mul_f64(jitter))
    }

    /// Start over (after a successful reconnect).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Knobs of the supervision layer; embedded in every backend's config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionParams {
    /// Resend-ring high-water mark per client (unacked frames).
    pub ring: usize,
    /// How long a client may sit on an unsent cumulative ack.
    pub ack_delay: Duration,
    /// Client-side idle heartbeat period.
    pub heartbeat: Duration,
    /// How long the server waits on a client before reaping its lane: a
    /// detached client (lost connection, no resume) for this long, and an
    /// attached one that owes an ack and has sent nothing for this long.
    pub liveness: Duration,
    /// Reconnect backoff shape.
    pub backoff: BackoffParams,
    /// Session seed: derives the per-client tokens and the backoff jitter.
    pub seed: u64,
}

impl Default for SessionParams {
    fn default() -> Self {
        Self {
            ring: 1024,
            ack_delay: Duration::from_millis(50),
            heartbeat: Duration::from_secs(1),
            liveness: Duration::from_secs(3),
            backoff: BackoffParams::default(),
            seed: 0x005E_5510,
        }
    }
}

impl SessionParams {
    /// Unacked deliveries that force an ack before [`Self::ack_delay`] runs
    /// out: an eighth of the ring, so no burst can walk the lane of a
    /// client that keeps reading past its ring into eviction.
    pub fn ack_every(&self) -> u64 {
        (self.ring as u64 / 8).max(1)
    }

    /// Parameters scaled for fast tests: short ack delay, short liveness.
    pub fn fast() -> Self {
        Self {
            ack_delay: Duration::from_millis(10),
            liveness: Duration::from_millis(600),
            heartbeat: Duration::from_millis(200),
            backoff: BackoffParams {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(100),
                budget: 8,
            },
            ..Self::default()
        }
    }
}

/// Counters of everything the supervision layer did. All-zero (except
/// `acks`) on a clean run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames resent to catch a resumed client up.
    pub retransmits: u64,
    /// Cumulative acknowledgements the server processed — not frames
    /// delivered. On the threaded backends that is [`SessionUp::Ack`]
    /// frames, each covering every delivery since the last (see
    /// [`SessionParams::ack_delay`]); under the simulator's instant-ack
    /// model it is one per in-order delivery. Clients do not count the
    /// acks they send.
    pub acks: u64,
    /// Resume handshakes completed (client: heals; server: resumes
    /// accepted).
    pub reconnects: u64,
    /// Lanes reaped by the liveness supervisor.
    pub reaps: u64,
    /// Lanes evicted because their resend ring crossed `ring`.
    pub sheds: u64,
    /// Down-lane frames the client dropped because they were not the next
    /// in sequence: a frame past the gap a lost connection left, or one
    /// already delivered.
    pub dups_dropped: u64,
}

impl SessionStats {
    /// The fault-coping counters — exactly zero on a clean run (acks flow
    /// even without faults).
    pub fn coping(&self) -> u64 {
        self.retransmits + self.reconnects + self.reaps + self.sheds
    }
}

/// Client → server supervision envelope.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SessionUp<U> {
    /// A protocol message.
    Msg(U),
    /// Cumulative acknowledgement: every down-lane seq ≤ this arrived.
    Ack(u64),
    /// Resume after a reconnect: prove identity, report the last
    /// contiguous seq delivered, so the server resends the rest.
    Resume {
        /// The session token ([`session_token`]).
        token: u64,
        /// Last cumulatively acked down-lane sequence number.
        last_acked: u64,
    },
    /// Liveness signal while otherwise idle.
    Heartbeat,
}

/// Server → client supervision envelope: every protocol message carries a
/// per-client sequence number (1-based, contiguous).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SessionDown<D> {
    /// Sequenced protocol message.
    Seq(u64, D),
}

// Per-client sequence numbers make otherwise-identical payloads distinct on
// the wire, so sequenced frames never share an encoded buffer. An accepted
// trade-off: encode-once fan-out still applies below the wrapper per frame
// sent.
impl<D> ShareKey for SessionDown<D> {}

/// The server side's bounded resend ring for one client: unacked frames in
/// sequence order. The simulator keeps its lanes' windows in this same
/// type.
#[derive(Debug)]
pub struct SendWindow<M> {
    next_seq: u64,
    ring: VecDeque<(u64, M)>,
}

impl<M> Default for SendWindow<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SendWindow<M> {
    /// An empty window; the first frame gets seq 1.
    pub fn new() -> Self {
        Self {
            next_seq: 1,
            ring: VecDeque::new(),
        }
    }

    /// Append one frame; returns its sequence number.
    pub fn push(&mut self, msg: M) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back((seq, msg));
        seq
    }

    /// Process a cumulative ack: drop everything ≤ `cum`. Returns whether
    /// it dropped anything.
    pub fn ack(&mut self, cum: u64) -> bool {
        let before = self.ring.len();
        while self.ring.front().is_some_and(|(s, _)| *s <= cum) {
            self.ring.pop_front();
        }
        self.ring.len() != before
    }

    /// Unacked frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &(u64, M)> {
        self.ring.iter()
    }

    /// Unacked frame count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// No unacked frames?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Drop every unacked frame (lane reaped).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// Per-client supervision state on the server.
#[derive(Debug)]
struct SrvLane<D> {
    win: SendWindow<D>,
    /// Since when the client has owed an answer: the later of its last
    /// arrival and the moment its window last went from empty to
    /// non-empty. Read only while the window is non-empty.
    quiet_since: Instant,
    /// The supervision pass that first found the lane half `liveness`
    /// silent.
    overdue_since: Option<Instant>,
    detached_at: Option<Instant>,
    finished: bool,
    reaped: bool,
}

impl<D> SrvLane<D> {
    fn new(now: Instant) -> Self {
        Self {
            win: SendWindow::new(),
            quiet_since: now,
            overdue_since: None,
            detached_at: None,
            finished: false,
            reaped: false,
        }
    }

    fn live(&self) -> bool {
        !self.reaped && !self.finished
    }

    fn touch(&mut self, now: Instant) {
        self.quiet_since = now;
        self.detached_at = None;
    }

    /// Has an attached, live client owed an answer for at least `wait`
    /// without sending anything?
    fn silent_for(&self, now: Instant, wait: Duration) -> bool {
        self.live()
            && self.detached_at.is_none()
            && !self.win.is_empty()
            && now.duration_since(self.quiet_since) >= wait
    }
}

/// The server-side supervisor: wraps any [`ServerTransport`] carrying the
/// session envelopes and presents the plain protocol transport the
/// [`crate::node::NodeDriver`] expects.
pub struct SupervisedServerTransport<T, U, D> {
    inner: T,
    params: SessionParams,
    lanes: Vec<SrvLane<D>>,
    stats: SessionStats,
    ready: VecDeque<ServerEvent<U>>,
    scratch: Vec<(ClientId, SessionDown<D>)>,
}

impl<T, U, D> SupervisedServerTransport<T, U, D>
where
    T: ServerTransport<SessionUp<U>, SessionDown<D>>,
    D: Clone,
{
    /// Supervise `inner` for `n` client seats under `params`.
    pub fn new(inner: T, n: usize, params: SessionParams) -> Self {
        let now = Instant::now();
        Self {
            inner,
            params,
            lanes: (0..n).map(|_| SrvLane::new(now)).collect(),
            stats: SessionStats::default(),
            ready: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// Supervision counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Is live lane `c`'s resend ring past its high-water mark?
    fn over_ring(&self, c: usize) -> bool {
        self.lanes[c].live() && self.lanes[c].win.len() > self.params.ring
    }

    /// Resend every unacked frame on `c`'s lane (go-back-N): the catch-up
    /// after a resume.
    fn resend(&mut self, c: usize) -> Result<(), T::Error> {
        let lane = &self.lanes[c];
        if lane.win.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        let dest = ClientId(c as u16);
        for (seq, d) in lane.win.frames() {
            self.scratch.push((dest, SessionDown::Seq(*seq, d.clone())));
        }
        self.stats.retransmits += self.scratch.len() as u64;
        // Resent bytes are wire-path overhead, not protocol traffic; they
        // are deliberately not folded into the driver's byte totals.
        self.inner.send_batch(&self.scratch)?;
        Ok(())
    }

    /// Reap lane `c`: recycle its ring, release the substrate lane, and —
    /// unless the client already finished — queue the synthetic goodbye
    /// that keeps the driver's seat count converging.
    fn reap(&mut self, c: usize) -> Result<(), T::Error> {
        let lane = &mut self.lanes[c];
        if lane.reaped {
            return Ok(());
        }
        lane.reaped = true;
        lane.win.clear();
        let finished = lane.finished;
        self.stats.reaps += 1;
        self.inner.release(ClientId(c as u16))?;
        if !finished {
            self.ready.push_back(ServerEvent::Done(ClientId(c as u16)));
        }
        Ok(())
    }

    /// One supervision pass: liveness reaping. Runs whenever the inbound
    /// queue has just been found empty (at least once per driver cycle) —
    /// never ahead of an ack that has already arrived.
    ///
    /// A detached lane is reaped `liveness` after its connection was lost.
    /// An attached lane is reaped by the *silence rule*: it owes an ack and
    /// nothing has arrived from its client for `liveness` — a hung client
    /// that keeps its socket open would otherwise pin its ring and wedge
    /// the end of the session. The second half of
    /// that wait has to elapse *under watch*: a pass that finds the lane
    /// silent for `liveness / 2` only takes note, and a later pass,
    /// `liveness / 2` on, reaps it if it is silent still. Running normally
    /// that is the plain deadline. But time during which this process was
    /// not running (a descheduled thread, a frozen VM) ages every lane
    /// without any client being late; the first pass afterwards only takes
    /// note, and the clients get half a deadline to say so.
    fn supervise(&mut self, now: Instant) -> Result<(), T::Error> {
        let half = self.params.liveness / 2;
        for c in 0..self.lanes.len() {
            let lane = &mut self.lanes[c];
            if lane.reaped {
                continue;
            }
            if lane
                .detached_at
                .is_some_and(|at| now.duration_since(at) >= self.params.liveness)
            {
                self.reap(c)?;
            } else if !lane.silent_for(now, half) {
                lane.overdue_since = None;
            } else if now.duration_since(*lane.overdue_since.get_or_insert(now)) >= half {
                self.reap(c)?;
            }
        }
        Ok(())
    }

    /// Abrupt loss of `c`'s connection: hold the lane open for a resume;
    /// the liveness deadline decides when it becomes a reap.
    fn detach(&mut self, c: ClientId, now: Instant) {
        let lane = &mut self.lanes[c.index()];
        if lane.live() && lane.detached_at.is_none() {
            lane.detached_at = Some(now);
        }
    }

    fn handle_control(
        &mut self,
        c: ClientId,
        up: SessionUp<U>,
        now: Instant,
    ) -> Result<Option<U>, T::Error> {
        let i = c.index();
        if self.lanes[i].reaped {
            // Late traffic from a reaped client: the lane is gone.
            return Ok(None);
        }
        self.lanes[i].touch(now);
        Ok(match up {
            SessionUp::Msg(u) => Some(u),
            SessionUp::Ack(a) => {
                self.stats.acks += 1;
                self.lanes[i].win.ack(a);
                None
            }
            SessionUp::Heartbeat => None,
            SessionUp::Resume { token, last_acked } => {
                if token == session_token(self.params.seed, c) {
                    self.lanes[i].win.ack(last_acked);
                    self.stats.reconnects += 1;
                    // Catch the client up from exactly where it left off.
                    self.resend(i)?;
                }
                None
            }
        })
    }
}

impl<T, U, D> ServerTransport<U, D> for SupervisedServerTransport<T, U, D>
where
    T: ServerTransport<SessionUp<U>, SessionDown<D>>,
    D: Clone,
{
    type Error = T::Error;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, T::Error> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(e) = self.ready.pop_front() {
                return Ok(e);
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            let event = self.inner.recv(wait)?;
            let now = Instant::now();
            match event {
                ServerEvent::Msg(c, up) => {
                    if let Some(u) = self.handle_control(c, up, now)? {
                        return Ok(ServerEvent::Msg(c, u));
                    }
                }
                ServerEvent::Done(c) => {
                    let lane = &mut self.lanes[c.index()];
                    if lane.reaped || lane.finished {
                        continue;
                    }
                    lane.finished = true;
                    return Ok(ServerEvent::Done(c));
                }
                ServerEvent::Gone(c) => self.detach(c, now),
                ServerEvent::Timeout => {
                    // Every ack that has arrived is applied: now judge.
                    self.supervise(now)?;
                    if self.ready.is_empty() && now >= deadline {
                        return Ok(ServerEvent::Timeout);
                    }
                }
            }
        }
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, T::Error> {
        let now = Instant::now();
        self.scratch.clear();
        for (dest, d) in out {
            let lane = &mut self.lanes[dest.index()];
            if lane.reaped {
                continue;
            }
            if lane.win.is_empty() {
                // The client owes an answer from now on.
                lane.quiet_since = now;
            }
            let seq = lane.win.push(d.clone());
            self.scratch.push((*dest, SessionDown::Seq(seq, d.clone())));
        }
        let mut sent = std::mem::take(&mut self.scratch);
        let bytes = self.inner.send_batch(&sent)?;
        sent.clear();
        self.scratch = sent;
        // Overload response: a ring past its high-water mark means the
        // client is not draining what we send. Evict it: reap its lane now
        // (synthetic goodbye, buffers recycled).
        for c in 0..self.lanes.len() {
            if self.over_ring(c) {
                self.stats.sheds += 1;
                self.reap(c)?;
            }
        }
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), T::Error> {
        // Graceful close: give the last acks (and a resume in progress) a
        // bounded window to arrive, so a client cut right before shutdown
        // still catches up.
        let grace = self.params.ack_delay * 8 + Duration::from_millis(500);
        let deadline = Instant::now() + grace;
        while self.lanes.iter().any(|l| !l.reaped && !l.win.is_empty()) {
            if Instant::now() >= deadline {
                break;
            }
            let event = self.inner.recv(Duration::from_millis(10))?;
            let now = Instant::now();
            match event {
                ServerEvent::Msg(c, up) => {
                    // Engine traffic past the session end is dropped; acks
                    // and resumes still count.
                    self.handle_control(c, up, now)?;
                }
                ServerEvent::Done(c) => self.lanes[c.index()].finished = true,
                ServerEvent::Gone(c) => self.detach(c, now),
                ServerEvent::Timeout => self.supervise(now)?,
            }
        }
        self.inner.stop_all()
    }

    fn release(&mut self, c: ClientId) -> Result<(), T::Error> {
        self.inner.release(c)
    }

    fn egress_stats(&self) -> EgressStats {
        let mut s = self.inner.egress_stats();
        s.session = self.stats;
        s
    }
}

/// The client-side supervisor: in-sequence delivery, cumulative acks,
/// heartbeats, partition buffering, and the reconnect/resume state machine.
pub struct SupervisedClientTransport<T, U, D> {
    inner: T,
    params: SessionParams,
    token: u64,
    /// Every down-lane frame up to this seq has been delivered, in order;
    /// the next one delivered is `delivered + 1`.
    delivered: u64,
    stats: SessionStats,
    last_send: Instant,
    /// Highest cumulative ack the server has been told (by `Ack` or
    /// `Resume`).
    acked: u64,
    /// When the pending ack must leave: armed by the first delivery past
    /// `acked`, cleared when an ack or a resume goes out.
    ack_due: Option<Instant>,
    partition_until: Option<Instant>,
    buffered_up: Vec<SessionUp<U>>,
    dead: bool,
    /// The down-lane payload type: frames are handed on as they arrive.
    _down: PhantomData<fn() -> D>,
}

impl<T, U, D> SupervisedClientTransport<T, U, D>
where
    T: ClientTransport<SessionUp<U>, SessionDown<D>>,
{
    /// Supervise `inner` for client `id` under `params`.
    pub fn new(inner: T, id: ClientId, params: SessionParams) -> Self {
        Self {
            inner,
            token: session_token(params.seed, id),
            params,
            delivered: 0,
            stats: SessionStats::default(),
            last_send: Instant::now(),
            acked: 0,
            ack_due: None,
            partition_until: None,
            buffered_up: Vec::new(),
            dead: false,
            _down: PhantomData,
        }
    }

    /// Heal a partition: reconnect the substrate under backoff, then
    /// resume the session from the last delivered seq and flush the
    /// up-lane traffic buffered while the link was down.
    fn heal(&mut self) -> Result<bool, T::Error> {
        self.partition_until = None;
        let mut backoff = Backoff::new(self.params.backoff, self.params.seed ^ self.token);
        loop {
            match self.inner.reconnect() {
                Ok(_) => break,
                Err(_) => match backoff.next() {
                    Ok(delay) => std::thread::sleep(delay),
                    Err(_exhausted) => {
                        // Typed give-up, not a panic: the session is over.
                        self.dead = true;
                        return Ok(false);
                    }
                },
            }
        }
        self.stats.reconnects += 1;
        // `Resume` is itself a cumulative ack: nothing is owed after it.
        self.acked = self.delivered;
        self.ack_due = None;
        self.inner.send(SessionUp::Resume {
            token: self.token,
            last_acked: self.acked,
        })?;
        for m in std::mem::take(&mut self.buffered_up) {
            self.inner.send(m)?;
        }
        self.last_send = Instant::now();
        Ok(true)
    }

    fn partitioned(&self, now: Instant) -> bool {
        self.partition_until.is_some_and(|until| now < until)
    }

    /// If a partition has elapsed, run the heal handshake.
    fn heal_if_due(&mut self, now: Instant) -> Result<(), T::Error> {
        if self.partition_until.is_some_and(|until| now >= until) {
            self.heal()?;
        }
        Ok(())
    }

    /// Tell the server everything delivered so far, if it does not know
    /// already. Callers check the link is up.
    fn send_ack(&mut self, now: Instant) -> Result<(), T::Error> {
        self.ack_due = None;
        if self.delivered > self.acked {
            self.acked = self.delivered;
            self.inner.send(SessionUp::Ack(self.acked))?;
            self.last_send = now;
        }
        Ok(())
    }
}

impl<T, U, D> ClientTransport<U, D> for SupervisedClientTransport<T, U, D>
where
    T: ClientTransport<SessionUp<U>, SessionDown<D>>,
{
    type Error = T::Error;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, T::Error> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.dead {
                return Ok(ClientEvent::Closed);
            }
            let now = Instant::now();
            self.heal_if_due(now)?;
            if self.dead {
                return Ok(ClientEvent::Closed);
            }
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(until) = self.partition_until {
                // Nothing is acked while the link is dark; the resume
                // after the heal carries the cumulative ack instead.
                wait = wait.min(until.saturating_duration_since(now));
            } else {
                if self.ack_due.is_some_and(|due| now >= due) {
                    self.send_ack(now)?;
                } else if now.duration_since(self.last_send) >= self.params.heartbeat {
                    self.inner.send(SessionUp::Heartbeat)?;
                    self.last_send = now;
                }
                // A silent link must still hand control back in time to
                // send the pending ack.
                if let Some(due) = self.ack_due {
                    wait = wait.min(due.saturating_duration_since(now));
                }
            }
            let event = self.inner.recv(wait)?;
            let now = Instant::now();
            match event {
                ClientEvent::Msg(SessionDown::Seq(seq, d)) => {
                    if self.partitioned(now) {
                        // The link is down: down-lane traffic is lost. The
                        // server's resend ring recovers it after resume.
                        continue;
                    }
                    if seq != self.delivered + 1 {
                        // Past the gap a lost connection left, or already
                        // delivered: the resume's go-back-N brings it
                        // again, in order.
                        self.stats.dups_dropped += 1;
                        continue;
                    }
                    self.delivered = seq;
                    // Delayed cumulative ack: one frame answers every
                    // delivery of the next `ack_delay`, or `ack_every`
                    // deliveries, whichever comes first.
                    if self.delivered - self.acked >= self.params.ack_every() {
                        self.send_ack(now)?;
                    } else if self.ack_due.is_none() {
                        self.ack_due = Some(now + self.params.ack_delay);
                    }
                    return Ok(ClientEvent::Msg(d));
                }
                ClientEvent::Stop => return Ok(ClientEvent::Stop),
                ClientEvent::Closed => {
                    if self.partition_until.is_some() {
                        // The substrate connection died while the link is
                        // dark — expected (a TCP partition kills the
                        // socket). The heal path reconnects; meanwhile
                        // don't busy-spin on the dead connection.
                        std::thread::sleep(wait.min(Duration::from_millis(5)));
                        if Instant::now() >= deadline {
                            return Ok(ClientEvent::Timeout);
                        }
                        continue;
                    }
                    return Ok(ClientEvent::Closed);
                }
                ClientEvent::Timeout => {
                    if now >= deadline {
                        return Ok(ClientEvent::Timeout);
                    }
                }
            }
        }
    }

    fn send(&mut self, msg: U) -> Result<u64, T::Error> {
        let now = Instant::now();
        self.heal_if_due(now)?;
        if self.partitioned(now) || self.dead {
            // Hold up-lane traffic until the link heals; modelled as zero
            // wire bytes now, sent (uncounted) at resume.
            self.buffered_up.push(SessionUp::Msg(msg));
            return Ok(0);
        }
        let bytes = self.inner.send(SessionUp::Msg(msg))?;
        self.last_send = now;
        Ok(bytes)
    }

    fn finish(&mut self) -> Result<u64, T::Error> {
        let now = Instant::now();
        self.heal_if_due(now)?;
        if self.dead {
            return Ok(0);
        }
        if !self.partitioned(now) {
            // The goodbye must not overtake the ack for what it follows.
            self.send_ack(now)?;
        }
        self.inner.finish()
    }

    fn reconnect(&mut self) -> Result<bool, T::Error> {
        self.inner.reconnect()
    }

    fn partition(&mut self, d: Duration) -> Result<(), T::Error> {
        self.partition_until = Some(Instant::now() + d);
        // Let the substrate realize the outage (a stream transport drops
        // the connection so the server observes the loss; others no-op).
        self.inner.partition(d)
    }

    /// This side's counters: heals and dropped frames. `acks` stays zero
    /// here — the server counts the acks it processes.
    fn session_stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = BackoffParams {
            base: Duration::from_millis(50),
            cap: Duration::from_millis(400),
            budget: 6,
        };
        let run = |seed| {
            let mut b = Backoff::new(p, seed);
            std::iter::from_fn(|| b.next().ok()).collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        assert_ne!(a, run(8), "different seed, different jitter");
        assert_eq!(a.len(), 6, "budget bounds the schedule");
        for (k, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(50)
                .saturating_mul(1 << k as u32)
                .min(Duration::from_millis(400));
            assert!(*d <= exp, "attempt {k}: {d:?} above nominal {exp:?}");
            assert!(*d >= exp / 2, "attempt {k}: {d:?} below half nominal");
        }
        // Later delays hit the cap region.
        assert!(a[5] >= Duration::from_millis(200));
    }

    #[test]
    fn backoff_exhaustion_is_a_typed_error_not_a_panic() {
        let mut b = Backoff::new(
            BackoffParams {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                budget: 2,
            },
            3,
        );
        assert!(b.next().is_ok());
        assert!(b.next().is_ok());
        let err = b.next().expect_err("budget spent");
        assert_eq!(err, RetryBudgetExhausted { attempts: 2 });
        assert_eq!(err.to_string(), "retry budget exhausted after 2 attempts");
        // Still exhausted, still no panic.
        assert!(b.next().is_err());
        b.reset();
        assert!(b.next().is_ok(), "reset restores the budget");
    }

    #[test]
    fn send_window_trims_to_cumulative_acks() {
        let mut w: SendWindow<u32> = SendWindow::new();
        assert_eq!(w.push(10), 1);
        assert_eq!(w.push(20), 2);
        assert_eq!(w.push(30), 3);
        assert_eq!(w.len(), 3);
        assert!(w.ack(2));
        assert_eq!(
            w.frames().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![3],
            "cumulative ack trims the prefix"
        );
        assert!(!w.ack(2), "an old ack trims nothing");
        assert!(w.ack(3));
        assert!(w.is_empty());
        assert_eq!(w.push(40), 4, "sequence numbers never restart");
    }

    #[test]
    fn tokens_are_per_client_and_nonzero() {
        let a = session_token(1, ClientId(0));
        let b = session_token(1, ClientId(1));
        let c = session_token(2, ClientId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, 0);
        assert_eq!(a, session_token(1, ClientId(0)), "pure function");
    }

    #[test]
    fn envelopes_cost_a_tag_and_a_sequence_number() {
        use seve_net::wire::encoded_len;
        let msg = 300u32;
        assert_eq!(encoded_len(&SessionUp::Msg(msg)), 1 + encoded_len(&msg));
        assert_eq!(encoded_len(&SessionUp::<u32>::Ack(5)), 2);
        assert_eq!(
            encoded_len(&SessionDown::Seq(9, msg)),
            1 + 1 + encoded_len(&msg)
        );
        use seve_core::engine::ShareKey;
        assert_eq!(SessionDown::Seq(9, msg).share_key(), None);
    }

    // ---- Ack cadence and shedding, over a scripted link ----

    /// What a client put on the wire, in order.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Sent {
        Msg,
        Ack(u64),
        Resume(u64),
        Heartbeat,
        Bye,
    }

    /// One in-memory link shared by [`ScriptedClient`] and
    /// [`ScriptedServer`]: tests script it by pushing onto `down`, and read
    /// back what either side did.
    #[derive(Default)]
    struct Link {
        down: VecDeque<ClientEvent<SessionDown<u32>>>,
        up: VecDeque<SessionUp<u32>>,
        sent: Vec<Sent>,
        /// Every timeout the client wrapper asked its substrate for.
        waits: Vec<Duration>,
        /// Hand the client `Stop` once it has acked and `down` is empty.
        stop_once_acked: bool,
        batches: usize,
    }

    type SharedLink = std::rc::Rc<std::cell::RefCell<Link>>;

    struct ScriptedClient(SharedLink);

    impl ClientTransport<SessionUp<u32>, SessionDown<u32>> for ScriptedClient {
        type Error = std::convert::Infallible;

        fn recv(
            &mut self,
            timeout: Duration,
        ) -> Result<ClientEvent<SessionDown<u32>>, Self::Error> {
            let mut link = self.0.borrow_mut();
            link.waits.push(timeout);
            if let Some(e) = link.down.pop_front() {
                return Ok(e);
            }
            if link.stop_once_acked && link.sent.iter().any(|s| matches!(s, Sent::Ack(_))) {
                return Ok(ClientEvent::Stop);
            }
            drop(link);
            // A silent link really takes the time, so the wrapper's clock
            // moves.
            std::thread::sleep(timeout);
            Ok(ClientEvent::Timeout)
        }

        fn send(&mut self, msg: SessionUp<u32>) -> Result<u64, Self::Error> {
            let mut link = self.0.borrow_mut();
            link.sent.push(match &msg {
                SessionUp::Msg(_) => Sent::Msg,
                SessionUp::Ack(a) => Sent::Ack(*a),
                SessionUp::Resume { last_acked, .. } => Sent::Resume(*last_acked),
                SessionUp::Heartbeat => Sent::Heartbeat,
            });
            link.up.push_back(msg);
            Ok(0)
        }

        fn finish(&mut self) -> Result<u64, Self::Error> {
            self.0.borrow_mut().sent.push(Sent::Bye);
            Ok(0)
        }
    }

    struct ScriptedServer(SharedLink);

    impl ServerTransport<SessionUp<u32>, SessionDown<u32>> for ScriptedServer {
        type Error = std::convert::Infallible;

        fn recv(&mut self, _timeout: Duration) -> Result<ServerEvent<SessionUp<u32>>, Self::Error> {
            Ok(match self.0.borrow_mut().up.pop_front() {
                Some(m) => ServerEvent::Msg(ClientId(0), m),
                None => ServerEvent::Timeout,
            })
        }

        fn send_batch(&mut self, out: &[(ClientId, SessionDown<u32>)]) -> Result<u64, Self::Error> {
            let mut link = self.0.borrow_mut();
            link.batches += 1;
            for (_, d) in out {
                link.down.push_back(ClientEvent::Msg(d.clone()));
            }
            Ok(0)
        }

        fn stop_all(&mut self) -> Result<(), Self::Error> {
            Ok(())
        }
    }

    type Client = SupervisedClientTransport<ScriptedClient, u32, u32>;
    type Server = SupervisedServerTransport<ScriptedServer, u32, u32>;

    fn scripted_client(params: SessionParams) -> (SharedLink, Client) {
        let link = SharedLink::default();
        let t = SupervisedClientTransport::new(ScriptedClient(link.clone()), ClientId(0), params);
        (link, t)
    }

    /// Queue down-lane frames `seqs` for the client.
    fn script_down(link: &SharedLink, seqs: std::ops::RangeInclusive<u64>) {
        let mut link = link.borrow_mut();
        for seq in seqs {
            link.down
                .push_back(ClientEvent::Msg(SessionDown::Seq(seq, seq as u32)));
        }
    }

    /// Poll until the substrate runs dry; returns how many frames came up.
    fn read_all(t: &mut Client) -> usize {
        let mut n = 0;
        while let ClientEvent::Msg(_) = t.recv(Duration::ZERO).unwrap() {
            n += 1;
        }
        n
    }

    /// `fast()` with a deadline that never comes, so only the count
    /// threshold (and `finish`) can produce an ack: exact, whatever the
    /// scheduler does to the test thread.
    fn count_only(ring: usize) -> SessionParams {
        SessionParams {
            ring,
            ack_delay: Duration::from_secs(3600),
            heartbeat: Duration::from_secs(3600),
            ..SessionParams::fast()
        }
    }

    #[test]
    fn ack_cadence_is_ack_delay_or_an_eighth_of_the_ring() {
        let p = SessionParams::fast();
        assert_eq!(p.ack_delay, Duration::from_millis(10));
        assert_eq!(p.ack_every(), 128);
        assert_eq!(
            SessionParams::default().ack_delay,
            Duration::from_millis(50)
        );
        assert_eq!(count_only(4).ack_every(), 1, "never zero");
    }

    #[test]
    fn frames_inside_one_delay_share_one_ack() {
        let p = SessionParams::fast();
        let (link, mut t) = scripted_client(p);
        let t0 = Instant::now();
        script_down(&link, 1..=5);
        assert_eq!(read_all(&mut t), 5);
        if t0.elapsed() >= p.ack_delay {
            // The thread was stalled past the deadline: the frames were
            // not inside one delay, so an early ack was correct.
            return;
        }
        assert_eq!(
            link.borrow().sent,
            vec![],
            "nothing acked before the deadline"
        );
        std::thread::sleep(p.ack_delay);
        assert_eq!(read_all(&mut t), 0);
        assert_eq!(
            link.borrow().sent,
            vec![Sent::Ack(5)],
            "one ack, carrying the highest cum"
        );
        std::thread::sleep(p.ack_delay);
        assert_eq!(read_all(&mut t), 0);
        assert_eq!(link.borrow().sent.len(), 1, "nothing new to ack");
    }

    #[test]
    fn enough_unacked_frames_force_an_ack_before_the_deadline() {
        let p = count_only(64);
        let (link, mut t) = scripted_client(p);
        script_down(&link, 1..=7);
        assert_eq!(read_all(&mut t), 7);
        assert_eq!(link.borrow().sent, vec![]);
        script_down(&link, 8..=20);
        assert_eq!(read_all(&mut t), 13);
        assert_eq!(
            link.borrow().sent,
            vec![Sent::Ack(8), Sent::Ack(16)],
            "one ack per ring / 8 deliveries"
        );
    }

    #[test]
    fn only_the_next_frame_in_sequence_is_delivered() {
        let (link, mut t) = scripted_client(count_only(64));
        let mut deliver = |seqs| {
            script_down(&link, seqs);
            let mut got = Vec::new();
            while let ClientEvent::Msg(d) = t.recv(Duration::ZERO).unwrap() {
                got.push(d);
            }
            got
        };
        assert_eq!(deliver(1..=2), vec![1, 2]);
        // The tail of a lost connection: 3 never came, 4 and 5 did.
        assert_eq!(deliver(4..=5), vec![], "frames past a gap are not held");
        assert_eq!(deliver(2..=2), vec![], "nor is a frame delivered twice");
        // The resume's go-back-N refills the gap in order.
        assert_eq!(deliver(3..=5), vec![3, 4, 5]);
        assert_eq!(t.session_stats().dups_dropped, 3);
        t.finish().unwrap();
        assert_eq!(link.borrow().sent, vec![Sent::Ack(5), Sent::Bye]);
    }

    #[test]
    fn a_resent_window_is_not_a_burst_to_count() {
        // ring 64: every 8th delivery forces an ack. 32 frames, all acked,
        // all sent again: the duplicates must not force one ack each.
        let (link, mut t) = scripted_client(count_only(64));
        script_down(&link, 1..=32);
        assert_eq!(read_all(&mut t), 32);
        assert_eq!(link.borrow().sent.len(), 4);
        script_down(&link, 1..=32);
        assert_eq!(read_all(&mut t), 0);
        assert_eq!(link.borrow().sent.len(), 4, "acks forced by duplicates");
        assert_eq!(t.session_stats().dups_dropped, 32);
        // Nothing new was delivered, so nothing is owed at the goodbye.
        t.finish().unwrap();
        assert_eq!(link.borrow().sent[4..], [Sent::Bye]);
    }

    #[test]
    fn finish_flushes_the_pending_ack_before_the_goodbye() {
        let (link, mut t) = scripted_client(count_only(64));
        script_down(&link, 1..=3);
        assert_eq!(read_all(&mut t), 3);
        t.finish().unwrap();
        assert_eq!(link.borrow().sent, vec![Sent::Ack(3), Sent::Bye]);
        // Nothing owed: a second goodbye carries no ack.
        t.finish().unwrap();
        assert_eq!(link.borrow().sent[2..], [Sent::Bye]);
    }

    #[test]
    fn nothing_is_acked_while_partitioned_and_resume_is_the_ack() {
        let p = SessionParams::fast();
        let (link, mut t) = scripted_client(p);
        script_down(&link, 1..=3);
        assert_eq!(read_all(&mut t), 3);
        let dark = p.ack_delay * 3;
        let heal_at = Instant::now() + dark;
        t.partition(dark).unwrap();
        // The ack deadline passes in the dark; frames sent meanwhile are lost.
        std::thread::sleep(p.ack_delay + Duration::from_millis(2));
        script_down(&link, 4..=5);
        assert_eq!(read_all(&mut t), 0);
        if Instant::now() < heal_at {
            assert!(
                !link.borrow().sent.iter().any(|s| matches!(s, Sent::Ack(_))),
                "acked across a dead link: {:?}",
                link.borrow().sent
            );
        }
        std::thread::sleep(heal_at.saturating_duration_since(Instant::now()));
        assert_eq!(read_all(&mut t), 0);
        std::thread::sleep(p.ack_delay + Duration::from_millis(2));
        assert_eq!(read_all(&mut t), 0);
        let sent = link.borrow().sent.clone();
        let acks: Vec<_> = sent.iter().filter(|s| **s != Sent::Heartbeat).collect();
        assert_eq!(
            acks,
            vec![&Sent::Resume(3)],
            "exactly one resume, and no ack beside it"
        );
        assert_eq!(t.session_stats().reconnects, 1);
    }

    #[test]
    fn a_silent_link_returns_control_by_the_ack_deadline() {
        let p = SessionParams::fast();
        let (link, mut t) = scripted_client(p);
        script_down(&link, 1..=1);
        assert!(matches!(t.recv(Duration::ZERO), Ok(ClientEvent::Msg(1))));
        link.borrow_mut().stop_once_acked = true;
        link.borrow_mut().waits.clear();
        let t0 = Instant::now();
        assert!(matches!(
            t.recv(Duration::from_secs(1)),
            Ok(ClientEvent::Stop)
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "the ack waited for the caller's timeout"
        );
        let link = link.borrow();
        assert_eq!(link.sent, vec![Sent::Ack(1)]);
        assert!(
            link.waits[0] <= p.ack_delay,
            "blocking wait {:?} outlasts the ack deadline",
            link.waits[0]
        );
    }

    #[test]
    fn a_burst_to_a_reading_client_never_sheds() {
        let p = count_only(64);
        let link = SharedLink::default();
        let mut server: Server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 1, p);
        let mut client: Client =
            SupervisedClientTransport::new(ScriptedClient(link.clone()), ClientId(0), p);
        let mut delivered = 0;
        for chunk in 0..8u32 {
            let batch: Vec<_> = (0..32).map(|i| (ClientId(0), chunk * 32 + i)).collect();
            server.send_batch(&batch).unwrap();
            delivered += read_all(&mut client);
            assert!(matches!(
                server.recv(Duration::ZERO),
                Ok(ServerEvent::Timeout)
            ));
        }
        assert_eq!(delivered, 4 * p.ring);
        assert_eq!(server.stats().sheds, 0);
        assert_eq!(server.stats().reaps, 0);
        assert_eq!(
            server.stats().acks,
            delivered as u64 / p.ack_every(),
            "one ack frame per ring / 8 deliveries"
        );
    }

    /// A one-client server over the scripted link, reaping after 100 ms
    /// of silence.
    fn silence_server() -> (SharedLink, Server, SessionParams) {
        let p = SessionParams {
            liveness: Duration::from_millis(100),
            ..count_only(64)
        };
        let link = SharedLink::default();
        let server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 1, p);
        (link, server, p)
    }

    fn idle(server: &mut Server) {
        assert!(matches!(
            server.recv(Duration::ZERO),
            Ok(ServerEvent::Timeout)
        ));
    }

    #[test]
    fn silence_is_judged_after_queued_acks_and_only_on_watched_time() {
        let (link, mut server, p) = silence_server();
        let stall = p.liveness + Duration::from_millis(5);

        // The server stalls past the deadline with the ack already in its
        // queue: the ack is applied before the lane is judged.
        server.send_batch(&[(ClientId(0), 1)]).unwrap();
        std::thread::sleep(stall);
        link.borrow_mut().up.push_back(SessionUp::Ack(1));
        idle(&mut server);
        // So is a heartbeat, although it acks nothing.
        server.send_batch(&[(ClientId(0), 2)]).unwrap();
        std::thread::sleep(stall);
        link.borrow_mut().up.push_back(SessionUp::Heartbeat);
        idle(&mut server);
        assert_eq!(server.stats().reaps, 0);

        // It stalls again, and this time the client (frozen with it) has
        // said nothing: the first pass back only takes note...
        std::thread::sleep(stall);
        idle(&mut server);
        assert_eq!(server.stats().reaps, 0, "a frozen server blamed its client");
        // ...and the ack that lands next clears the lane for good.
        link.borrow_mut().up.push_back(SessionUp::Ack(2));
        idle(&mut server);
        std::thread::sleep(p.liveness / 2 + Duration::from_millis(2));
        idle(&mut server);
        assert_eq!(
            server.stats(),
            SessionStats {
                acks: 2,
                ..SessionStats::default()
            }
        );
        assert_eq!(link.borrow().batches, 2, "nothing was resent");
    }

    #[test]
    fn a_silent_lane_is_reaped_once() {
        // Nothing comes back from the client at all: half the deadline
        // after a pass first finds the lane silent, it is reaped, and its
        // seat ends with a synthetic goodbye.
        let (link, mut server, p) = silence_server();
        server.send_batch(&[(ClientId(0), 1)]).unwrap();
        std::thread::sleep(p.liveness + Duration::from_millis(5));
        idle(&mut server);
        assert_eq!(server.stats().reaps, 0);
        std::thread::sleep(p.liveness / 2 + Duration::from_millis(2));
        assert!(matches!(
            server.recv(Duration::ZERO),
            Ok(ServerEvent::Done(ClientId(0)))
        ));
        std::thread::sleep(p.liveness);
        idle(&mut server);
        assert_eq!(
            server.stats(),
            SessionStats {
                reaps: 1,
                ..SessionStats::default()
            }
        );
        assert_eq!(link.borrow().batches, 1, "a reaped lane is silent");
    }

    #[test]
    fn a_resume_resends_exactly_the_unacked_tail() {
        let p = count_only(64);
        let link = SharedLink::default();
        let mut server: Server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 1, p);
        let batch: Vec<_> = (1..=5).map(|i| (ClientId(0), i)).collect();
        server.send_batch(&batch).unwrap();
        let resume = |token| SessionUp::Resume {
            token,
            last_acked: 3,
        };
        let resent = |link: &SharedLink| -> Vec<u64> {
            let link = link.borrow();
            let seqs = link.down.iter().map(|e| match e {
                ClientEvent::Msg(SessionDown::Seq(seq, _)) => *seq,
                _ => 0,
            });
            seqs.collect()
        };
        // The client acked 2 and delivered 3 before its connection died
        // with 4 and 5 in flight.
        link.borrow_mut().up.push_back(SessionUp::Ack(2));
        link.borrow_mut().down.clear();
        let token = session_token(p.seed, ClientId(0));
        link.borrow_mut().up.push_back(resume(token));
        idle(&mut server);
        assert_eq!(resent(&link), vec![4, 5]);
        let stats = SessionStats {
            retransmits: 2,
            acks: 1,
            reconnects: 1,
            ..SessionStats::default()
        };
        assert_eq!(server.stats(), stats);
        // A resume with another session's token is refused.
        link.borrow_mut().down.clear();
        link.borrow_mut().up.push_back(resume(token ^ 1));
        idle(&mut server);
        assert_eq!(resent(&link), vec![]);
        assert_eq!(server.stats(), stats);
    }

    #[test]
    fn up_faults_touch_submissions_never_acks_or_resumes() {
        use crate::fault::{FaultPlan, FaultPolicy, FaultyClientTransport};
        let plan = FaultPlan {
            up: FaultPolicy {
                drop: 1.0,
                ..FaultPolicy::default()
            },
            ..FaultPlan::default()
        };
        let (link, client) = scripted_client(count_only(64));
        let mut t = FaultyClientTransport::new(client, &plan, 0);
        let t: &mut dyn ClientTransport<u32, u32, Error = _> = &mut t;
        t.send(7).unwrap();
        script_down(&link, 1..=3);
        while let ClientEvent::Msg(_) = t.recv(Duration::ZERO).unwrap() {}
        t.partition(Duration::ZERO).unwrap();
        assert!(matches!(t.recv(Duration::ZERO), Ok(ClientEvent::Timeout)));
        t.finish().unwrap();
        assert_eq!(
            link.borrow().sent,
            vec![Sent::Resume(3), Sent::Bye],
            "the submission is dropped, the resume is not"
        );
    }

    #[test]
    fn a_lane_past_its_ring_is_evicted_once_and_the_others_carry_on() {
        let p = count_only(64);
        let link = SharedLink::default();
        let mut server: Server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 2, p);
        // Client 0 reads nothing and falls one frame past its ring; client
        // 1 gets one frame in the same batch.
        let mut batch: Vec<_> = (0..=p.ring as u32).map(|i| (ClientId(0), i)).collect();
        batch.push((ClientId(1), 7));
        server.send_batch(&batch).unwrap();
        let evicted = SessionStats {
            reaps: 1,
            sheds: 1,
            ..SessionStats::default()
        };
        assert_eq!(server.stats(), evicted);
        assert!(matches!(
            server.recv(Duration::ZERO),
            Ok(ServerEvent::Done(ClientId(0)))
        ));
        idle(&mut server);
        // The evicted lane is silent; the other keeps its sequence.
        link.borrow_mut().down.clear();
        server
            .send_batch(&[(ClientId(0), 8), (ClientId(1), 9)])
            .unwrap();
        let down: Vec<_> = link.borrow_mut().down.drain(..).collect();
        assert!(
            matches!(down[..], [ClientEvent::Msg(SessionDown::Seq(2, 9))]),
            "{down:?}"
        );
        idle(&mut server);
        assert_eq!(server.stats(), evicted, "evicted once, one goodbye");
    }

    #[test]
    fn default_params_are_supervised() {
        let p = SessionParams::default();
        assert!(SessionParams::fast().ack_delay < p.ack_delay);
    }
}
