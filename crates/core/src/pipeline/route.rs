//! Route stage: which clients hear about which queued actions, behind the
//! [`RoutingPolicy`] trait.
//!
//! Three policies cover the paper's protocol family:
//!
//! * [`BroadcastRouting`] — Algorithm 2: deliver everything to everyone,
//!   tracking `pos_C` per client and trimming fully delivered entries.
//! * [`ClosureRouting`] — Algorithms 5 + 6: reply to each submission with
//!   its transitive conflict closure plus a blind write for the residue.
//! * [`SphereRouting`] — the First / Information Bound Models: on each
//!   ω·RTT push cycle, select candidates by the Eq. 1 influence sphere
//!   (with interest classes, velocity culling, and the dense-crowd
//!   interest-radius override), then ship their closure support.
//!
//! A push cycle is three phases — select, closure, assembly — over two
//! indexes: the [`UniformGrid`] over client positions inverts candidate
//! selection (O(actions × nearby clients), hits written straight into
//! per-client buffers that outlive the cycle), and the queue's inverted
//! write index (see [`crate::closure`]) drives Algorithm 6, which runs
//! *once for all clients* as a client-sliced pass
//! ([`SlicedClosure`](crate::closure::SlicedClosure)) before egress
//! assembles each client's batch. Both indexed phases have reference
//! implementations that differential tests compare against: the linear
//! selection scan, and one `closure_for` walk per client.

use crate::bounds::BoundParams;
use crate::closure::{QueueEntry, SlicedClosure};
use crate::config::ProtocolConfig;
use crate::msg::ToClient;
use crate::pipeline::{analyze, egress, state::PipelineState};
use seve_net::time::SimTime;
use seve_world::geometry::Vec2;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::semantics::InterestMask;
use seve_world::spatial::UniformGrid;
use seve_world::{Action, GameWorld};

/// Which clients hear about which queued actions, and when.
pub trait RoutingPolicy<W: GameWorld>: Send {
    /// Observe a submission before it is enqueued (e.g. to update the
    /// submitter's sphere-of-influence position).
    fn before_enqueue(&mut self, _st: &mut PipelineState<W>, _from: ClientId, _action: &W::Action) {
    }

    /// The solicited reply to a submission now queued at `pos`. Returns the
    /// simulated compute cost beyond the per-message charge.
    fn on_submit(
        &mut self,
        st: &mut PipelineState<W>,
        now: SimTime,
        from: ClientId,
        pos: QueuePos,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64;

    /// Unsolicited delivery on the server tick (quiescence flushes).
    /// Returns the simulated compute cost.
    fn on_tick(
        &mut self,
        _st: &mut PipelineState<W>,
        _now: SimTime,
        _out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        0
    }

    /// The ω·RTT proactive push fan-out over positions up to `horizon`.
    /// Returns the simulated compute cost. The stage clock is started when
    /// this is called, and the policy laps each stage it runs (selection to
    /// `route`, then `analyze`, then `egress`).
    fn on_push(
        &mut self,
        _st: &mut PipelineState<W>,
        _now: SimTime,
        _horizon: QueuePos,
        _out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        0
    }

    /// Whether this mode's clients send completion messages (and the
    /// serialize stage therefore maintains ζ_S).
    fn handles_completions(&self) -> bool {
        true
    }
}

/// Algorithm 2: every client eventually receives every action.
pub struct BroadcastRouting {
    /// `pos_C` per client.
    pos_c: Vec<QueuePos>,
    /// Cached `min(pos_C)` — the queue-retention bound. Maintained
    /// incrementally so every submit doesn't rescan all clients.
    min_pos: QueuePos,
    /// How many clients currently sit exactly at `min_pos`; the O(n)
    /// recomputation runs only when the last straggler advances.
    min_count: usize,
}

impl BroadcastRouting {
    /// Routing for `n` clients.
    pub fn new(n: usize) -> Self {
        Self {
            pos_c: vec![0; n],
            min_pos: 0,
            min_count: n,
        }
    }

    /// Advance `pos_C` of client `i` to `to`, keeping the cached minimum
    /// consistent. Delivery positions only move forward.
    fn advance(&mut self, i: usize, to: QueuePos) {
        let old = self.pos_c[i];
        debug_assert!(to >= old, "pos_C must be monotone");
        if to == old {
            return;
        }
        self.pos_c[i] = to;
        if old == self.min_pos {
            self.min_count -= 1;
            if self.min_count == 0 {
                let m = self.pos_c.iter().copied().min().unwrap_or(0);
                self.min_pos = m;
                self.min_count = self.pos_c.iter().filter(|&&p| p == m).count();
            }
        }
    }

    /// Drop queue entries already delivered to every client — the basic
    /// protocol has no commit machinery, so "delivered everywhere" is the
    /// retention bound.
    fn trim_delivered<W: GameWorld>(&self, st: &mut PipelineState<W>) {
        debug_assert_eq!(
            self.min_pos,
            self.pos_c.iter().copied().min().unwrap_or(0),
            "cached min(pos_C) out of sync"
        );
        while let Some(front) = st.queue.front() {
            if front.pos <= self.min_pos {
                st.queue.pop_front();
            } else {
                break;
            }
        }
    }
}

impl<W: GameWorld> RoutingPolicy<W> for BroadcastRouting {
    fn on_submit(
        &mut self,
        st: &mut PipelineState<W>,
        _now: SimTime,
        from: ClientId,
        pos: QueuePos,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        let lo = self.pos_c[from.index()] + 1;
        let n_items = egress::emit_span(st, from, lo, pos, true, out);
        st.laps.lap(&mut st.metrics.stage.egress);
        self.advance(from.index(), pos);
        self.trim_delivered(st);
        st.meter.scanned(n_items)
    }

    fn on_tick(
        &mut self,
        st: &mut PipelineState<W>,
        _now: SimTime,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        // Catch-up flush: Algorithm 2 as written only delivers to a client
        // when it submits, so a client that stops submitting never learns
        // the tail of the queue. The paper's clients submit continuously,
        // making the distinction invisible; we flush undelivered actions on
        // the server tick so replicas also converge at quiescence.
        let Some(last) = st.queue.last_pos() else {
            return 0;
        };
        let mut cost = 0;
        // The queue is immutable across this loop (trimming happens after),
        // so lagging clients with the same `pos_C` share one assembled span
        // — encode-once fan-out for the broadcast catch-up.
        let mut spans = egress::SpanCache::default();
        for i in 0..self.pos_c.len() {
            if self.pos_c[i] >= last {
                continue;
            }
            let lo = self.pos_c[i] + 1;
            self.advance(i, last);
            let n_items =
                egress::emit_span_cached(st, ClientId(i as u16), lo, last, &mut spans, out);
            if n_items > 0 {
                cost += st.meter.message() + st.meter.scanned(n_items);
            }
        }
        st.laps.lap(&mut st.metrics.stage.egress);
        self.trim_delivered(st);
        cost
    }

    fn handles_completions(&self) -> bool {
        false
    }
}

/// Algorithms 5 + 6: reply to each submission with its transitive conflict
/// closure plus a blind write for the residual read support.
pub struct ClosureRouting;

impl<W: GameWorld> RoutingPolicy<W> for ClosureRouting {
    fn on_submit(
        &mut self,
        st: &mut PipelineState<W>,
        _now: SimTime,
        from: ClientId,
        pos: QueuePos,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        // Algorithm 6: compute the reply for the submitting client.
        let result = analyze::closure_support(st, from, &[pos]);
        st.laps.lap(&mut st.metrics.stage.analyze);
        egress::emit_closure_batch(st, from, &result, out);
        st.laps.lap(&mut st.metrics.stage.egress);
        st.meter.scanned(result.scanned)
    }
}

/// First / Information Bound push routing: the Eq. 1 influence sphere with
/// interest classes and velocity culling selects candidates, whose closure
/// support is pushed every ω·RTT.
///
/// Candidate selection is *index-driven*: a [`UniformGrid`] over the client
/// sphere-of-influence positions (kept in lockstep by
/// [`RoutingPolicy::before_enqueue`]) inverts the push loop — each new queue
/// entry is visited once and grid-queried for the clients whose Eq. 1
/// sphere it can touch, O(actions × nearby clients) instead of
/// O(clients × queue-span). The grid supplies a cell-level superset and the
/// *exact* scalar predicates of the linear scan decide membership, so the
/// selection (and therefore egress order and the golden digests) is
/// bit-identical to the scan-based path, which survives in test builds as
/// the oracle of the pipeline's selection tests.
pub struct SphereRouting {
    /// `p̄_C` — last known position of each client's sphere of influence,
    /// updated from the influence center of each submission.
    client_pos: Vec<Vec2>,
    /// Interest subscriptions (Section IV-A); `ALL` when filtering is off.
    interests: Vec<InterestMask>,
    /// Per client: every position at or below this has been considered for
    /// pushing to that client.
    last_push_pos: Vec<QueuePos>,
    params: BoundParams,
    /// Spatial index over `client_pos`, updated on every submission.
    grid: UniformGrid<ClientId>,
    /// Reusable per-client candidate buffers for the push cycle.
    scratch: Vec<Vec<QueuePos>>,
    /// Reusable state of the push cycle's Algorithm 6 pass.
    sliced: SlicedClosure,
    /// Run the closure phase as one walk per client instead (the oracle the
    /// pipeline tests compare the sliced pass against).
    #[cfg(test)]
    pub(crate) per_client_oracle: bool,
}

impl SphereRouting {
    /// Routing over `world` under `cfg`.
    pub fn new<W: GameWorld>(world: &W, cfg: &ProtocolConfig) -> Self {
        let n = world.num_clients();
        let sem = world.semantics();
        let initial = world.initial_state();
        let center_fallback = Vec2::new(
            (sem.bounds.min.x + sem.bounds.max.x) * 0.5,
            (sem.bounds.min.y + sem.bounds.max.y) * 0.5,
        );
        let client_pos: Vec<Vec2> = (0..n)
            .map(|i| {
                let c = ClientId(i as u16);
                world
                    .position_in(&initial, world.avatar_object(c))
                    .unwrap_or(center_fallback)
            })
            .collect();
        let interests = (0..n)
            .map(|i| {
                if cfg.interest_filtering {
                    world.client_interests(ClientId(i as u16))
                } else {
                    InterestMask::ALL
                }
            })
            .collect();
        let params = BoundParams {
            max_speed: sem.max_speed,
            window_secs: cfg.rtt.as_secs_f64() * (1.0 + cfg.omega),
            client_radius: sem.client_radius,
            // Candidates are selected by the Eq. 1 sphere in both modes;
            // the transitive support added by the closure is what Eq. 2
            // bounds (candidate distance + at most `threshold` of chain)
            // when dropping is on — the bound is emergent, not a wider
            // candidate filter.
            extra: 0.0,
            velocity_culling: cfg.velocity_culling,
        };
        // Cell size on the order of the typical query radius (the Eq. 1
        // sphere, or the dense-crowd override when set) so queries touch a
        // handful of cells, floored so a tiny radius in a huge world can't
        // explode the cell count.
        let typical = cfg
            .interest_radius_override
            .unwrap_or(params.motion_slack() + params.client_radius + sem.default_action_radius);
        let max_dim = sem.bounds.width().max(sem.bounds.height()).max(1e-6);
        let cell = typical.clamp(max_dim / 128.0, max_dim).max(1e-6);
        let mut grid = UniformGrid::new(sem.bounds, cell);
        for (i, &p) in client_pos.iter().enumerate() {
            grid.insert(ClientId(i as u16), p);
        }
        Self {
            client_pos,
            interests,
            last_push_pos: vec![0; n],
            params,
            grid,
            scratch: Vec::new(),
            sliced: SlicedClosure::new(),
            #[cfg(test)]
            per_client_oracle: false,
        }
    }

    /// The exact membership predicate of the linear scan: the dense-crowd
    /// interest-radius override, or the Eq. 1 sphere with optional area
    /// culling. Both paths must use the *same float operations* as the
    /// pre-index code so the indexed selection is bit-identical.
    #[inline]
    fn near<A: Action>(
        &self,
        override_r: Option<f64>,
        e: &QueueEntry<A>,
        age_secs: f64,
        client_pos: Vec2,
    ) -> bool {
        match override_r {
            Some(r) => e.influence.center.dist(client_pos) <= r,
            None => self.params.may_affect(&e.influence, age_secs, client_pos),
        }
    }

    /// Candidate selection by the inverted, grid-indexed scan: visit each
    /// window entry once, grid-query the clients its sphere can touch, and
    /// filter each hit with the exact linear-scan predicates.
    /// O(window × nearby clients). Hits go straight into the per-client
    /// buffers, which keep their capacity across cycles. Entries are
    /// visited in ascending position order, so every client's candidates
    /// ascend and the result is identical to the linear scan's bit for bit
    /// (the oracle of the pipeline's selection tests).
    pub(crate) fn select_candidates<W: GameWorld>(
        &self,
        st: &PipelineState<W>,
        now: SimTime,
        horizon: QueuePos,
        cands: &mut Vec<Vec<QueuePos>>,
    ) {
        let n = st.num_clients();
        cands.truncate(n);
        cands.resize_with(n, Vec::new);
        for out in cands.iter_mut() {
            out.clear();
        }
        let lo = self.last_push_pos.iter().copied().min().unwrap_or(0) + 1;
        if n == 0 || horizon < lo {
            return;
        }
        let override_r = st.cfg.interest_radius_override;
        let slack = self.params.motion_slack() + self.params.client_radius + self.params.extra;
        for pos in lo..=horizon {
            let Some(e) = st.queue.get(pos) else {
                continue; // already committed: values flow via blinds
            };
            if e.dropped {
                continue;
            }
            let age_secs = (now - e.submit_time).as_secs_f64();
            // The grid query's sphere over-approximates every exact
            // predicate below: the override radius, the culled
            // predicted-point slack, or the static sphere (slack + r_A).
            let (center, radius) = match override_r {
                Some(r) => (e.influence.center, r),
                None => match (self.params.velocity_culling, e.influence.velocity) {
                    (true, Some(v)) => (e.influence.center + v * age_secs, slack),
                    _ => (e.influence.center, slack + e.influence.radius),
                },
            };
            // The issuer always receives its own action — no interest or
            // distance filter applies.
            let issuer = e.action.issuer();
            if issuer.index() < n
                && self.last_push_pos[issuer.index()] < pos
                && !e.sent.contains(issuer)
            {
                cands[issuer.index()].push(pos);
            }
            self.grid.for_each_candidate(center, radius, |c, c_pos| {
                debug_assert_eq!(c_pos, self.client_pos[c.index()], "grid out of sync");
                if c == issuer
                    || self.last_push_pos[c.index()] >= pos
                    || e.sent.contains(c)
                    || !self.interests[c.index()].contains(e.influence.class)
                {
                    return;
                }
                if self.near(override_r, e, age_secs, c_pos) {
                    cands[c.index()].push(pos);
                }
            });
        }
    }
}

#[cfg(test)]
impl SphereRouting {
    /// Candidate selection for every client over queue positions
    /// `(last_push_pos, horizon]`, by the original linear scan: for each
    /// client, walk the window and apply the Eq. 1 / interest / culling
    /// filters. O(clients × window). The reference implementation of the
    /// selection differential tests; does not mutate routing or queue
    /// state.
    pub(crate) fn select_candidates_linear<W: GameWorld>(
        &self,
        st: &PipelineState<W>,
        now: SimTime,
        horizon: QueuePos,
        cands: &mut Vec<Vec<QueuePos>>,
    ) {
        let n = st.num_clients();
        cands.truncate(n);
        cands.resize_with(n, Vec::new);
        let override_r = st.cfg.interest_radius_override;
        for (i, out) in cands.iter_mut().enumerate() {
            out.clear();
            let client = ClientId(i as u16);
            let lo = self.last_push_pos[i] + 1;
            for pos in lo..=horizon {
                let Some(e) = st.queue.get(pos) else {
                    continue; // already committed: values flow via blinds
                };
                if e.dropped || e.sent.contains(client) {
                    continue;
                }
                let own = e.action.issuer() == client;
                if !own {
                    if !self.interests[i].contains(e.influence.class) {
                        continue;
                    }
                    let age = (now - e.submit_time).as_secs_f64();
                    if !self.near(override_r, e, age, self.client_pos[i]) {
                        continue;
                    }
                }
                out.push(pos);
            }
        }
    }

    /// The push cycle's closure phase as it ran before the sliced pass: one
    /// [`closure_for`](crate::closure::closure_for) walk per client. The
    /// differential oracle of `on_push`.
    fn push_per_client<W: GameWorld>(
        &mut self,
        st: &mut PipelineState<W>,
        horizon: QueuePos,
        cands: &[Vec<QueuePos>],
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        let mut cost = 0u64;
        for (i, candidates) in cands.iter().enumerate() {
            self.last_push_pos[i] = horizon.max(self.last_push_pos[i]);
            if candidates.is_empty() {
                continue;
            }
            let client = ClientId(i as u16);
            let result = analyze::closure_support(st, client, candidates);
            st.laps.lap(&mut st.metrics.stage.analyze);
            cost += st.meter.message() + st.meter.scanned(result.scanned);
            egress::emit_closure_batch(st, client, &result, out);
            st.laps.lap(&mut st.metrics.stage.egress);
        }
        cost
    }
}

impl<W: GameWorld> RoutingPolicy<W> for SphereRouting {
    fn before_enqueue(&mut self, _st: &mut PipelineState<W>, from: ClientId, action: &W::Action) {
        let new_pos = action.influence().center;
        let old_pos = self.client_pos[from.index()];
        if new_pos != old_pos {
            let moved = self.grid.relocate(from, old_pos, new_pos);
            debug_assert!(moved, "client missing from the routing grid");
            self.client_pos[from.index()] = new_pos;
        }
    }

    fn on_submit(
        &mut self,
        _st: &mut PipelineState<W>,
        _now: SimTime,
        _from: ClientId,
        _pos: QueuePos,
        _out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        // Bounded modes reply only on push cycles.
        0
    }

    fn on_push(
        &mut self,
        st: &mut PipelineState<W>,
        now: SimTime,
        horizon: QueuePos,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        let mut cost = 0u64;
        // Selection is a pure read of queue + routing state, so it runs
        // once for all clients (grid-inverted) before the
        // `sent`-bit-mutating closure phase. A client's selection
        // depends only on its *own* `sent` bits, which the closures of
        // other clients never touch, and its batch only on its own closure,
        // so select → closure for all → assembly per client is
        // observationally identical to the interleaved scan.
        let mut cands = std::mem::take(&mut self.scratch);
        self.select_candidates(st, now, horizon, &mut cands);
        st.laps.lap(&mut st.metrics.stage.route);
        #[cfg(test)]
        if self.per_client_oracle {
            cost = self.push_per_client(st, horizon, &cands, out);
            self.scratch = cands;
            return cost;
        }
        let results = analyze::closure_support_all(st, &mut self.sliced, &cands);
        st.laps.lap(&mut st.metrics.stage.analyze);
        for (i, result) in results.iter().enumerate() {
            self.last_push_pos[i] = horizon.max(self.last_push_pos[i]);
            if cands[i].is_empty() {
                continue;
            }
            cost += st.meter.message() + st.meter.scanned(result.scanned);
            egress::emit_closure_batch(st, ClientId(i as u16), result, out);
        }
        st.laps.lap(&mut st.metrics.stage.egress);
        self.scratch = cands;
        cost
    }
}
