//! Session supervision: the acked resume protocol, reconnect with backoff,
//! liveness reaping, and overload shedding.
//!
//! The protocol engines assume a reliable FIFO down-lane and clients that
//! say goodbye (the replay log reconciles *out-of-order item arrival*, not
//! transport loss). This module supplies that assumption on top of lossy or
//! interrupted substrates, as a pair of transport decorators driven by the
//! unchanged [`crate::node::NodeDriver`] loops:
//!
//! * [`SupervisedServerTransport`] — sequence-numbers every down-lane
//!   message, keeps a bounded per-client resend ring, retransmits past the
//!   client's last cumulative ack on timeout, reaps lanes whose client
//!   vanished (liveness deadlines), and sheds load when a ring crosses its
//!   high-water mark ([`ShedPolicy`]).
//! * [`SupervisedClientTransport`] — resequences the down lane (in-order
//!   delivery, duplicate suppression), acknowledges cumulatively and late
//!   (one [`SessionUp::Ack`] per `rto / 4` or per `ring / 8` frames,
//!   whichever comes first; again when the server resends what was
//!   acked), sends heartbeats while idle, and — after a link partition —
//!   reconnects under seeded exponential [`Backoff`] and resumes with a
//!   [`SessionUp::Resume`] handshake carrying the session token and the
//!   last acked sequence number, so the server retransmits exactly the
//!   frames the client missed and nothing it already delivered.
//!
//! Retransmitted bytes are wire-path overhead, not protocol traffic: they
//! are excluded from the driver's byte accounting (which therefore stays
//! comparable with a fault-free run) and surface in [`SessionStats`]
//! instead, which flows through the stage profile into every report.
//!
//! Fault-free sessions are pass-through for the engines: no retransmit
//! timers fire and every counter except `acks` stays zero. The *byte
//! accounting* counts the envelopes that carry engine messages
//! ([`SessionUp::Msg`], [`SessionDown::Seq`]) at their encoded size, header
//! included, and leaves control frames out — the simulator models acks as
//! free, which is not the socket's truth. On TCP an ack is a frame of its
//! own: an encode, a `write` syscall on the client, a reader-thread wake, a
//! decode and a channel send on the server. That is why acks are
//! cumulative *and delayed*: the cost is per ack frame, not per
//! acknowledged frame.

use crate::transport::{ClientEvent, ClientTransport, EgressStats, ServerEvent, ServerTransport};
use serde::{Deserialize, Serialize};
use seve_core::engine::ShareKey;
use seve_world::ids::ClientId;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Add;
use std::time::{Duration, Instant};

/// splitmix64, the same mixer the fault verdicts use: deterministic,
/// stream-independent draws from (seed, counter).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The session token a client presents when resuming: a pure function of
/// (session seed, client id), so both sides derive it independently and a
/// resume from the wrong peer (or the wrong session) is rejected.
pub fn session_token(seed: u64, id: ClientId) -> u64 {
    splitmix64(seed ^ 0x5E55_1014_u64.wrapping_mul(id.0 as u64 + 1)).max(1)
}

/// What to do when a client's resend ring crosses its high-water mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Evict the slow client: reap its lane now (synthetic goodbye,
    /// buffers recycled) so one stuck peer cannot pin server memory.
    Evict,
    /// Thin the push cycle: [`ServerTransport::overloaded`] reports true
    /// and the driver skips whole push ticks until the backlog drains
    /// (safe because routing state only advances on actual sends).
    ThinPush,
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

/// The vendored serde derive handles only plain field types, so the param
/// structs serialize through mirror structs carrying durations as
/// microsecond counts.
#[derive(Serialize, Deserialize)]
struct BackoffParamsWire {
    base_us: u64,
    cap_us: u64,
    budget: u32,
}

impl Serialize for BackoffParams {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        BackoffParamsWire {
            base_us: self.base.as_micros() as u64,
            cap_us: self.cap.as_micros() as u64,
            budget: self.budget,
        }
        .serialize(s)
    }
}

impl<'de> Deserialize<'de> for BackoffParams {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let w = BackoffParamsWire::deserialize(d)?;
        Ok(Self {
            base: Duration::from_micros(w.base_us),
            cap: Duration::from_micros(w.cap_us),
            budget: w.budget,
        })
    }
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

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
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
    /// Retransmit timeout: the oldest unacked frame older than this
    /// triggers a go-back-N retransmission of the window — provided the
    /// supervisor was running to watch the second half of it go by.
    pub rto: Duration,
    /// Retransmission attempts per window before the lane is declared
    /// unreachable and reaped.
    pub give_up: u32,
    /// Client-side idle heartbeat period.
    pub heartbeat: Duration,
    /// How long a detached client (lost connection, no resume) keeps its
    /// lane before the server reaps it.
    pub liveness: Duration,
    /// Reap even *attached* clients silent for this long (heartbeats count
    /// as activity). `None` disables the idle reaper.
    pub idle_reap: Option<Duration>,
    /// Overload response when a resend ring crosses `ring`.
    pub shed: ShedPolicy,
    /// Reconnect backoff shape.
    pub backoff: BackoffParams,
    /// Session seed: derives the per-client tokens and the backoff jitter.
    pub seed: u64,
}

/// Serde mirror of [`SessionParams`] (see [`BackoffParamsWire`]).
#[derive(Serialize, Deserialize)]
struct SessionParamsWire {
    ring: usize,
    rto_us: u64,
    give_up: u32,
    heartbeat_us: u64,
    liveness_us: u64,
    idle_reap_us: Option<u64>,
    shed: ShedPolicy,
    backoff: BackoffParams,
    seed: u64,
}

impl Serialize for SessionParams {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        SessionParamsWire {
            ring: self.ring,
            rto_us: self.rto.as_micros() as u64,
            give_up: self.give_up,
            heartbeat_us: self.heartbeat.as_micros() as u64,
            liveness_us: self.liveness.as_micros() as u64,
            idle_reap_us: self.idle_reap.map(|d| d.as_micros() as u64),
            shed: self.shed,
            backoff: self.backoff,
            seed: self.seed,
        }
        .serialize(s)
    }
}

impl<'de> Deserialize<'de> for SessionParams {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let w = SessionParamsWire::deserialize(d)?;
        Ok(Self {
            ring: w.ring,
            rto: Duration::from_micros(w.rto_us),
            give_up: w.give_up,
            heartbeat: Duration::from_micros(w.heartbeat_us),
            liveness: Duration::from_micros(w.liveness_us),
            idle_reap: w.idle_reap_us.map(Duration::from_micros),
            shed: w.shed,
            backoff: w.backoff,
            seed: w.seed,
        })
    }
}

impl Default for SessionParams {
    fn default() -> Self {
        Self {
            ring: 1024,
            rto: Duration::from_millis(200),
            give_up: 16,
            heartbeat: Duration::from_secs(1),
            liveness: Duration::from_secs(3),
            idle_reap: None,
            shed: ShedPolicy::Evict,
            backoff: BackoffParams::default(),
            seed: 0x005E_5510,
        }
    }
}

impl SessionParams {
    /// How long a client may sit on an unsent cumulative ack: a quarter of
    /// the RTO, which leaves a client that stalls right at the deadline
    /// three quarters of an RTO (less two link latencies) before the server
    /// retransmits. (Linux TCP: 40 ms delayed ack against a 200 ms minimum
    /// RTO, a fifth.)
    pub fn ack_delay(&self) -> Duration {
        self.rto / 4
    }

    /// Unacked deliveries that force an ack before [`Self::ack_delay`] runs
    /// out: an eighth of the ring, so no burst can walk the lane of a
    /// client that keeps reading into [`ShedPolicy`].
    pub fn ack_every(&self) -> u64 {
        (self.ring as u64 / 8).max(1)
    }

    /// Parameters scaled for fast tests: short RTO, short liveness.
    pub fn fast() -> Self {
        Self {
            rto: Duration::from_millis(40),
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
    /// Frames retransmitted (RTO expiry or resume catch-up).
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
    /// Overload responses: evicted lanes or thinned push cycles.
    pub sheds: u64,
    /// Duplicate down-lane frames suppressed by the resequencer.
    pub dups_dropped: u64,
    /// Out-of-order frames parked in the reorder buffer.
    pub holds: u64,
}

impl SessionStats {
    /// The fault-coping counters — exactly zero on a clean run (acks and
    /// resequencer bookkeeping flow even without faults).
    pub fn coping(&self) -> u64 {
        self.retransmits + self.reconnects + self.reaps + self.sheds
    }

    /// Merge another side's counters in.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.reconnects += other.reconnects;
        self.reaps += other.reaps;
        self.sheds += other.sheds;
        self.dups_dropped += other.dups_dropped;
        self.holds += other.holds;
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
    /// contiguous seq delivered, so the server retransmits the rest.
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
// trade-off: supervision targets lossy real links, encode-once fan-out
// still applies below the wrapper per frame sent.
impl<D> ShareKey for SessionDown<D> {}

/// The client side's reorder buffer: accepts `(seq, msg)` in any order,
/// releases the contiguous prefix, and suppresses duplicates. Shared by the
/// threaded wrapper and the simulator weave.
#[derive(Debug)]
pub struct Resequencer<M> {
    next: u64,
    buf: BTreeMap<u64, M>,
    /// Duplicates suppressed.
    pub dups_dropped: u64,
    /// Frames parked out of order.
    pub holds: u64,
}

impl<M> Default for Resequencer<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Resequencer<M> {
    /// An empty resequencer expecting seq 1.
    pub fn new() -> Self {
        Self {
            next: 1,
            buf: BTreeMap::new(),
            dups_dropped: 0,
            holds: 0,
        }
    }

    /// Accept one frame; `out` receives every frame now deliverable, in
    /// sequence order.
    pub fn accept(&mut self, seq: u64, msg: M, out: &mut Vec<M>) {
        if seq < self.next || self.buf.contains_key(&seq) {
            self.dups_dropped += 1;
            return;
        }
        if seq == self.next {
            out.push(msg);
            self.next += 1;
            while let Some(m) = self.buf.remove(&self.next) {
                out.push(m);
                self.next += 1;
            }
        } else {
            self.holds += 1;
            self.buf.insert(seq, msg);
        }
    }

    /// The cumulative ack: every seq ≤ this has been delivered in order.
    pub fn cum_ack(&self) -> u64 {
        self.next - 1
    }

    /// Frames currently parked out of order.
    pub fn held(&self) -> usize {
        self.buf.len()
    }
}

/// The server side's bounded resend ring for one client: unacked frames in
/// sequence order, with the retransmission bookkeeping. Generic over its
/// timestamp: `Instant` on the threaded transports, `SimTime` under the
/// simulator, which keeps its lanes' windows in this same type.
#[derive(Debug)]
pub struct SendWindow<M, T = Instant> {
    next_seq: u64,
    ring: VecDeque<(u64, M)>,
    attempts: u32,
    oldest_sent: Option<T>,
}

impl<M, T: Copy> Default for SendWindow<M, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, T: Copy> SendWindow<M, T> {
    /// An empty window; the first frame gets seq 1.
    pub fn new() -> Self {
        Self {
            next_seq: 1,
            ring: VecDeque::new(),
            attempts: 0,
            oldest_sent: None,
        }
    }

    /// Append one frame; returns its sequence number.
    pub fn push(&mut self, msg: M, now: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.is_empty() {
            self.oldest_sent = Some(now);
            self.attempts = 0;
        }
        self.ring.push_back((seq, msg));
        seq
    }

    /// Process a cumulative ack: drop everything ≤ `cum`.
    pub fn ack(&mut self, cum: u64, now: T) {
        let before = self.ring.len();
        while self.ring.front().is_some_and(|(s, _)| *s <= cum) {
            self.ring.pop_front();
        }
        if self.ring.len() != before {
            // Progress: restart the RTO clock for the new oldest frame.
            self.oldest_sent = (!self.ring.is_empty()).then_some(now);
            self.attempts = 0;
        }
    }

    /// When the oldest unacked frame's RTO runs out; `None` with nothing
    /// unacked.
    pub fn deadline<S>(&self, rto: S) -> Option<T>
    where
        T: Add<S, Output = T>,
    {
        self.oldest_sent
            .filter(|_| !self.ring.is_empty())
            .map(|t| t + rto)
    }

    /// Is the RTO expired for the oldest unacked frame?
    pub fn due<S>(&self, now: T, rto: S) -> bool
    where
        T: Add<S, Output = T> + PartialOrd,
    {
        self.deadline(rto).is_some_and(|d| now >= d)
    }

    /// Record one go-back-N retransmission of the whole window; returns
    /// the attempt count.
    pub fn retransmitted(&mut self, now: T) -> u32 {
        self.attempts += 1;
        self.oldest_sent = Some(now);
        self.attempts
    }

    /// Go-back-N rounds (RTO resends and resume catch-ups) since the last
    /// progress. A lane is reaped once this reaches
    /// [`SessionParams::give_up`] and the window is due again.
    pub fn attempts(&self) -> u32 {
        self.attempts
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
        self.oldest_sent = None;
        self.attempts = 0;
    }
}

/// Per-client supervision state on the server.
#[derive(Debug)]
struct SrvLane<D> {
    win: SendWindow<D>,
    /// The supervision pass that first found the window half an RTO old.
    overdue_since: Option<Instant>,
    last_activity: Instant,
    detached_at: Option<Instant>,
    finished: bool,
    reaped: bool,
}

impl<D> SrvLane<D> {
    fn new(now: Instant) -> Self {
        Self {
            win: SendWindow::new(),
            overdue_since: None,
            last_activity: now,
            detached_at: None,
            finished: false,
            reaped: false,
        }
    }

    fn live(&self) -> bool {
        !self.reaped && !self.finished
    }

    fn touch(&mut self, now: Instant) {
        self.last_activity = now;
        self.detached_at = None;
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

    /// Retransmit every unacked frame on `c`'s lane (go-back-N).
    fn retransmit(&mut self, c: usize, now: Instant) -> Result<(), T::Error> {
        let lane = &mut self.lanes[c];
        if lane.win.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        let dest = ClientId(c as u16);
        for (seq, d) in lane.win.frames() {
            self.scratch.push((dest, SessionDown::Seq(*seq, d.clone())));
        }
        lane.win.retransmitted(now);
        self.stats.retransmits += self.scratch.len() as u64;
        // Retransmit bytes are wire-path overhead, not protocol traffic;
        // they are deliberately not folded into the driver's byte totals.
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

    /// One supervision pass: RTO retransmissions, give-up and liveness
    /// reaping. Runs whenever the inbound queue has just been found empty
    /// (at least once per driver cycle) — never ahead of an ack that has
    /// already arrived.
    ///
    /// The second half of the RTO has to elapse *under watch*: a window is
    /// resent once a pass has found it `rto / 2` old and a later pass,
    /// `rto / 2` on, finds it no further. Running normally that is the
    /// plain RTO. But time during which this process was not running (a
    /// descheduled thread, a frozen VM) ages every frame without any client
    /// being late; the first pass afterwards only takes note, and the
    /// clients get two ack intervals — one to read what was delivered while
    /// everyone stood still, one for [`SessionParams::ack_delay`] — to say
    /// so before anything is resent.
    fn supervise(&mut self, now: Instant) -> Result<(), T::Error> {
        let half = self.params.rto / 2;
        for c in 0..self.lanes.len() {
            let lane = &mut self.lanes[c];
            if lane.reaped {
                continue;
            }
            if let Some(at) = lane.detached_at {
                if now.duration_since(at) >= self.params.liveness {
                    self.reap(c)?;
                    continue;
                }
            }
            if let Some(idle) = self.params.idle_reap {
                if lane.live() && now.duration_since(lane.last_activity) >= idle {
                    self.reap(c)?;
                    continue;
                }
            }
            if !lane.win.due(now, half) {
                lane.overdue_since = None;
            } else if now.duration_since(*lane.overdue_since.get_or_insert(now)) >= half {
                lane.overdue_since = None;
                if lane.win.attempts() >= self.params.give_up {
                    // The peer is unreachable past the whole retry budget:
                    // stop resending into the void.
                    self.reap(c)?;
                } else {
                    self.retransmit(c, now)?;
                }
            }
        }
        Ok(())
    }

    /// Abrupt loss of `c`'s connection: hold the lane open for a resume;
    /// the liveness deadline decides when it becomes a reap.
    fn detach(&mut self, c: ClientId) {
        let lane = &mut self.lanes[c.index()];
        if lane.live() && lane.detached_at.is_none() {
            lane.detached_at = Some(Instant::now());
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
                self.lanes[i].win.ack(a, now);
                None
            }
            SessionUp::Heartbeat => None,
            SessionUp::Resume { token, last_acked } => {
                if token == session_token(self.params.seed, c) {
                    self.lanes[i].win.ack(last_acked, now);
                    self.stats.reconnects += 1;
                    // Catch the client up from exactly where it left off.
                    self.retransmit(i, now)?;
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
            match self.inner.recv(wait)? {
                ServerEvent::Msg(c, up) => {
                    if let Some(u) = self.handle_control(c, up, Instant::now())? {
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
                ServerEvent::Gone(c) => self.detach(c),
                ServerEvent::Timeout => {
                    // Every ack that has arrived is applied: now judge.
                    let now = Instant::now();
                    self.supervise(now)?;
                    if self.ready.is_empty() && now >= deadline {
                        return Ok(ServerEvent::Timeout);
                    }
                }
                ServerEvent::Closed => return Ok(ServerEvent::Closed),
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
            let seq = lane.win.push(d.clone(), now);
            self.scratch.push((*dest, SessionDown::Seq(seq, d.clone())));
        }
        let mut sent = std::mem::take(&mut self.scratch);
        let bytes = self.inner.send_batch(&sent)?;
        sent.clear();
        self.scratch = sent;
        // Overload response: a ring past its high-water mark means the
        // client is not draining what we send. (`ThinPush` answers in
        // `overloaded`, from ring depth alone.)
        if self.params.shed == ShedPolicy::Evict {
            for c in 0..self.lanes.len() {
                if self.over_ring(c) {
                    self.stats.sheds += 1;
                    self.reap(c)?;
                }
            }
        }
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), T::Error> {
        // Graceful close: give in-flight retransmissions a bounded window
        // to drain, so a drop right before shutdown is still recovered.
        let grace = self.params.rto * 2 + Duration::from_millis(500);
        let deadline = Instant::now() + grace;
        while self.lanes.iter().any(|l| !l.reaped && !l.win.is_empty()) {
            if Instant::now() >= deadline {
                break;
            }
            match self.inner.recv(Duration::from_millis(10))? {
                ServerEvent::Msg(c, up) => {
                    // Engine traffic past the session end is dropped; acks
                    // and resumes still count.
                    self.handle_control(c, up, Instant::now())?;
                }
                ServerEvent::Done(c) => self.lanes[c.index()].finished = true,
                ServerEvent::Gone(c) => self.detach(c),
                ServerEvent::Timeout => self.supervise(Instant::now())?,
                ServerEvent::Closed => break,
            }
        }
        self.inner.stop_all()
    }

    fn release(&mut self, c: ClientId) -> Result<(), T::Error> {
        self.inner.release(c)
    }

    fn overloaded(&mut self) -> bool {
        // Recomputed from ring depth on every call, so the all-clear needs
        // only acks to arrive, not another batch to be sent.
        let over = self.params.shed == ShedPolicy::ThinPush
            && (0..self.lanes.len()).any(|c| self.over_ring(c));
        if over {
            self.stats.sheds += 1;
        }
        over
    }

    fn egress_stats(&self) -> EgressStats {
        let mut s = self.inner.egress_stats();
        s.session = self.stats;
        s
    }
}

/// The client-side supervisor: resequencing, cumulative acks, heartbeats,
/// partition buffering, and the reconnect/resume state machine.
pub struct SupervisedClientTransport<T, U, D> {
    inner: T,
    params: SessionParams,
    token: u64,
    reseq: Resequencer<D>,
    ready: VecDeque<D>,
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
    scratch: Vec<D>,
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
            reseq: Resequencer::new(),
            ready: VecDeque::new(),
            stats: SessionStats::default(),
            last_send: Instant::now(),
            acked: 0,
            ack_due: None,
            partition_until: None,
            buffered_up: Vec::new(),
            dead: false,
            scratch: Vec::new(),
        }
    }

    /// Heal a partition: reconnect the substrate under backoff, then
    /// resume the session from the last acked seq and flush the up-lane
    /// traffic buffered while the link was down.
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
        self.acked = self.reseq.cum_ack();
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
        let cum = self.reseq.cum_ack();
        if cum > self.acked {
            self.acked = cum;
            self.inner.send(SessionUp::Ack(cum))?;
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
            if let Some(d) = self.ready.pop_front() {
                return Ok(ClientEvent::Msg(d));
            }
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
            match self.inner.recv(wait)? {
                ClientEvent::Msg(SessionDown::Seq(seq, d)) => {
                    let now = Instant::now();
                    if self.partitioned(now) {
                        // The link is down: down-lane traffic is lost. The
                        // server's resend ring recovers it after resume.
                        continue;
                    }
                    if seq <= self.acked {
                        // The server resent a frame it had been told
                        // about: that ack was lost. Owe it again (by the
                        // deadline: a resent window is no burst to count).
                        self.acked = seq.saturating_sub(1);
                    }
                    let before = self.reseq.cum_ack();
                    self.scratch.clear();
                    self.reseq.accept(seq, d, &mut self.scratch);
                    self.ready.extend(self.scratch.drain(..));
                    // Delayed cumulative ack: one frame answers every
                    // delivery of the next `ack_delay`, or `ack_every`
                    // deliveries, whichever comes first.
                    let cum = self.reseq.cum_ack();
                    if cum > before && cum - self.acked >= self.params.ack_every() {
                        self.send_ack(now)?;
                    } else if cum > self.acked && self.ack_due.is_none() {
                        self.ack_due = Some(now + self.params.ack_delay());
                    }
                }
                ClientEvent::Stop => return Ok(ClientEvent::Stop),
                ClientEvent::Closed => {
                    if self.partition_until.is_some() {
                        // The substrate connection died while the link is
                        // dark — expected (a TCP partition kills the
                        // socket). The heal path reconnects; meanwhile
                        // don't busy-spin on the dead channel.
                        std::thread::sleep(wait.min(Duration::from_millis(5)));
                        if Instant::now() >= deadline {
                            return Ok(ClientEvent::Timeout);
                        }
                        continue;
                    }
                    return Ok(ClientEvent::Closed);
                }
                ClientEvent::Timeout => {
                    if Instant::now() >= deadline {
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
        // Let the substrate realize the outage (a TCP transport drops the
        // connection so the server observes the loss; channels are no-ops).
        self.inner.partition(d)
    }

    /// This side's counters: heals plus the resequencer's bookkeeping.
    /// `acks` stays zero here — the server counts the acks it processes.
    fn session_stats(&self) -> SessionStats {
        let mut s = self.stats;
        s.dups_dropped += self.reseq.dups_dropped;
        s.holds += self.reseq.holds;
        s
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
    fn resequencer_reorders_dedups_and_acks_cumulatively() {
        let mut r: Resequencer<u32> = Resequencer::new();
        let mut out = Vec::new();
        r.accept(2, 20, &mut out);
        assert!(out.is_empty(), "gap holds delivery");
        assert_eq!(r.cum_ack(), 0);
        r.accept(1, 10, &mut out);
        assert_eq!(out, vec![10, 20], "contiguous prefix released in order");
        assert_eq!(r.cum_ack(), 2);
        out.clear();
        r.accept(2, 20, &mut out);
        r.accept(1, 10, &mut out);
        assert!(out.is_empty(), "duplicates suppressed");
        assert_eq!(r.dups_dropped, 2);
        assert_eq!(r.holds, 1);
        r.accept(4, 40, &mut out);
        r.accept(4, 40, &mut out);
        assert_eq!(r.dups_dropped, 3, "buffered duplicate suppressed too");
        r.accept(3, 30, &mut out);
        assert_eq!(out, vec![30, 40]);
        assert_eq!(r.cum_ack(), 4);
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn send_window_tracks_acks_and_rto() {
        let t0 = Instant::now();
        let mut w: SendWindow<u32> = SendWindow::new();
        assert_eq!(w.push(10, t0), 1);
        assert_eq!(w.push(20, t0), 2);
        assert_eq!(w.push(30, t0), 3);
        assert_eq!(w.len(), 3);
        w.ack(2, t0);
        assert_eq!(
            w.frames().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![3],
            "cumulative ack trims the prefix"
        );
        assert!(!w.due(t0, Duration::from_millis(10)), "clock restarted");
        assert!(w.due(t0 + Duration::from_millis(11), Duration::from_millis(10)));
        assert_eq!(w.retransmitted(t0), 1);
        assert_eq!(w.retransmitted(t0), 2);
        w.ack(3, t0);
        assert!(w.is_empty());
        assert!(!w.due(t0 + Duration::from_secs(1), Duration::ZERO));
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
            rto: Duration::from_secs(3600),
            heartbeat: Duration::from_secs(3600),
            ..SessionParams::fast()
        }
    }

    #[test]
    fn ack_cadence_derives_from_rto_and_ring() {
        let p = SessionParams::fast();
        assert_eq!(p.ack_delay(), Duration::from_millis(10));
        assert_eq!(p.ack_every(), 128);
        assert_eq!(
            SessionParams::default().ack_delay(),
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
        if t0.elapsed() >= p.ack_delay() {
            // The thread was stalled past the deadline: the frames were
            // not inside one delay, so an early ack was correct.
            return;
        }
        assert_eq!(
            link.borrow().sent,
            vec![],
            "nothing acked before the deadline"
        );
        std::thread::sleep(p.ack_delay());
        assert_eq!(read_all(&mut t), 0);
        assert_eq!(
            link.borrow().sent,
            vec![Sent::Ack(5)],
            "one ack, carrying the highest cum"
        );
        std::thread::sleep(p.ack_delay());
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
    fn a_resent_frame_that_was_acked_is_acked_again() {
        let p = SessionParams::fast();
        let (link, mut t) = scripted_client(p);
        let after_the_deadline = p.ack_delay() + Duration::from_millis(2);
        script_down(&link, 1..=3);
        assert_eq!(read_all(&mut t), 3);
        std::thread::sleep(after_the_deadline);
        assert_eq!(read_all(&mut t), 0);
        // The ack is lost on the way; the server's RTO resends the window.
        assert!(link.borrow_mut().up.pop_back().is_some());
        script_down(&link, 1..=3);
        assert_eq!(read_all(&mut t), 0, "duplicates are not delivered twice");
        std::thread::sleep(after_the_deadline);
        assert_eq!(read_all(&mut t), 0);
        let sent = link.borrow().sent.clone();
        assert_eq!(*sent.last().unwrap(), Sent::Ack(3));
        assert!(sent.len() >= 2, "the lost ack was never repeated: {sent:?}");
        assert_eq!(t.session_stats().dups_dropped, 3);
    }

    #[test]
    fn a_resent_window_is_not_a_burst_to_count() {
        // ring 64: every 8th delivery forces an ack. 32 frames, all acked,
        // all resent: the duplicates must not force one ack each.
        let (link, mut t) = scripted_client(count_only(64));
        script_down(&link, 1..=32);
        assert_eq!(read_all(&mut t), 32);
        assert_eq!(link.borrow().sent.len(), 4);
        script_down(&link, 1..=32);
        assert_eq!(read_all(&mut t), 0);
        assert_eq!(link.borrow().sent.len(), 4, "acks forced by duplicates");
        // The repeat is owed all the same, and leaves with the goodbye.
        t.finish().unwrap();
        assert_eq!(link.borrow().sent[4..], [Sent::Ack(32), Sent::Bye]);
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
        let dark = p.ack_delay() * 3;
        let heal_at = Instant::now() + dark;
        t.partition(dark).unwrap();
        // The ack deadline passes in the dark; frames sent meanwhile are lost.
        std::thread::sleep(p.ack_delay() + Duration::from_millis(2));
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
        std::thread::sleep(p.ack_delay() + Duration::from_millis(2));
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
            link.waits[0] <= p.ack_delay(),
            "blocking wait {:?} outlasts the ack deadline",
            link.waits[0]
        );
    }

    #[test]
    fn slowest_permitted_ack_cadence_never_trips_the_rto() {
        // Virtual milliseconds: one frame a millisecond, 2 ms each way, a
        // client that acks exactly `ack_delay` after its first unacked
        // delivery and never sooner. The window never gets even half way
        // to its RTO (where the supervisor starts watching it).
        let p = SessionParams::fast();
        let (delay, lat) = (p.ack_delay().as_millis() as u64, 2u64);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut w: SendWindow<u64> = SendWindow::new();
        let mut ack_leaves: Option<u64> = None;
        let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
        for ms in 0..500u64 {
            while in_flight.front().is_some_and(|(arrives, _)| *arrives <= ms) {
                let (_, cum) = in_flight.pop_front().unwrap();
                w.ack(cum, at(ms));
            }
            assert!(!w.due(at(ms), p.rto / 2), "half an RTO old at {ms} ms");
            let seq = w.push(ms, at(ms));
            // Frame `seq` reaches the client at `ms + lat`.
            let delivered = seq.saturating_sub(lat);
            if delivered > 0 && ack_leaves.is_none() {
                ack_leaves = Some(ms + delay);
            }
            if ack_leaves == Some(ms) {
                in_flight.push_back((ms + lat, delivered));
                ack_leaves = None;
            }
        }
        assert!(w.len() as u64 <= delay + 2 * lat + 1, "window {}", w.len());
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

    #[test]
    fn rto_is_judged_after_queued_acks_and_only_on_watched_time() {
        let p = SessionParams::fast();
        let link = SharedLink::default();
        let mut server: Server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 1, p);
        let idle = |server: &mut Server| {
            assert!(matches!(
                server.recv(Duration::ZERO),
                Ok(ServerEvent::Timeout)
            ));
        };
        let stall = p.rto + Duration::from_millis(5);

        // The server stalls past the RTO with the ack already in its queue:
        // the ack is applied before the lane is judged.
        server.send_batch(&[(ClientId(0), 1)]).unwrap();
        std::thread::sleep(stall);
        link.borrow_mut().up.push_back(SessionUp::Ack(1));
        idle(&mut server);
        assert_eq!(server.stats().retransmits, 0);

        // It stalls again, and this time the client (frozen with it) has
        // yet to ack: the first pass back only takes note...
        server.send_batch(&[(ClientId(0), 2)]).unwrap();
        std::thread::sleep(stall);
        idle(&mut server);
        assert_eq!(
            server.stats().retransmits,
            0,
            "a frozen server blamed its client"
        );
        // ...and the ack that lands next clears the lane for good.
        link.borrow_mut().up.push_back(SessionUp::Ack(2));
        idle(&mut server);
        std::thread::sleep(p.rto / 2 + Duration::from_millis(2));
        idle(&mut server);
        assert_eq!(server.stats().retransmits, 0);
        assert_eq!(link.borrow().batches, 2, "nothing was resent");

        // A frame that really is lost is resent half an RTO after it was
        // first seen overdue.
        server.send_batch(&[(ClientId(0), 3)]).unwrap();
        std::thread::sleep(stall);
        idle(&mut server);
        assert_eq!(server.stats().retransmits, 0);
        std::thread::sleep(p.rto / 2 + Duration::from_millis(2));
        idle(&mut server);
        assert_eq!(server.stats().retransmits, 1);
        assert_eq!(link.borrow().batches, 4);
    }

    #[test]
    fn an_unreachable_lane_is_resent_give_up_times_then_reaped() {
        // The down link loses every frame, so nothing is ever acked. The lane
        // gets exactly `give_up` go-back-N rounds, then one reap — the count
        // the simulator runs too
        // (sim::tests::an_unreachable_lane_is_resent_give_up_times_then_reaped).
        let p = SessionParams {
            rto: Duration::from_millis(4),
            give_up: 3,
            ..count_only(64)
        };
        let link = SharedLink::default();
        let mut server: Server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 1, p);
        server.send_batch(&[(ClientId(0), 1)]).unwrap();
        let mut passes = 0;
        while server.stats().reaps == 0 {
            link.borrow_mut().down.clear();
            std::thread::sleep(p.rto / 2 + Duration::from_millis(1));
            server.recv(Duration::ZERO).unwrap();
            passes += 1;
            assert!(passes < 100, "never reaped: {:?}", server.stats());
        }
        assert_eq!(server.stats().retransmits, u64::from(p.give_up));
        assert_eq!(link.borrow().batches, 1 + p.give_up as usize);
        std::thread::sleep(p.rto);
        server.recv(Duration::ZERO).unwrap();
        assert_eq!(server.stats().reaps, 1);
        assert_eq!(
            link.borrow().batches,
            1 + p.give_up as usize,
            "a reaped lane is silent"
        );
    }

    #[test]
    fn thin_push_all_clear_needs_only_acks() {
        let p = SessionParams {
            shed: ShedPolicy::ThinPush,
            ..count_only(64)
        };
        let link = SharedLink::default();
        let mut server: Server = SupervisedServerTransport::new(ScriptedServer(link.clone()), 1, p);
        assert!(!server.overloaded());
        let batch: Vec<_> = (0..=p.ring as u32).map(|i| (ClientId(0), i)).collect();
        server.send_batch(&batch).unwrap();
        assert!(server.overloaded(), "ring crossed its high-water mark");
        assert_eq!(server.stats().sheds, 1, "one thinned cycle, counted once");
        // The client catches up; the server sends nothing in between.
        link.borrow_mut()
            .up
            .push_back(SessionUp::Ack(p.ring as u64 + 1));
        assert!(matches!(
            server.recv(Duration::ZERO),
            Ok(ServerEvent::Timeout)
        ));
        assert_eq!(link.borrow().batches, 1);
        assert!(!server.overloaded(), "all-clear from ring depth alone");
        assert_eq!(server.stats().sheds, 1);
        assert_eq!(server.stats().reaps, 0, "thinning never evicts");
    }

    #[test]
    fn default_params_are_supervised() {
        let p = SessionParams::default();
        assert_eq!(p.shed, ShedPolicy::Evict);
        assert!(SessionParams::fast().rto < p.rto);
    }
}
