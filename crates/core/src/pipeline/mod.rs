//! The staged server pipeline: one serializer engine, policy-configured.
//!
//! "The central server does not execute any actions, and therefore is free
//! of the game logic. The server merely timestamps actions, queues them for
//! delivery for clients, and manages the network traffic" (Section III-A).
//! Every action-protocol server variant in the paper shares that shape;
//! this module factors it into five stages over one shared
//! [`state::PipelineState`]:
//!
//! 1. **ingress** — timestamp + enqueue (Algorithm 2 step a);
//! 2. **serialize** — commit-order installs into ζ_S and GC notices
//!    (Algorithm 5 step 5);
//! 3. **analyze** — transitive-closure scans (Algorithm 6) and Algorithm 7
//!    drop verdicts, behind [`DropPolicy`];
//! 4. **route** — which clients hear about which actions, behind
//!    [`RoutingPolicy`] (Algorithm 2 broadcast, Algorithm 6 closure
//!    replies, or the Eq. 1 influence-sphere push selection);
//! 5. **egress** — per-client batch assembly, blind writes, `sent`
//!    tracking, FIFO hand-off.
//!
//! The four paper variants are [`PipelineServer`] configurations
//! (see [`PipelineServer::new`]):
//!
//! | Mode | Routing | Drops | Push |
//! |---|---|---|---|
//! | Basic | [`BroadcastRouting`] | [`NoDrop`] | [`NoPush`] |
//! | Incomplete | [`ClosureRouting`] | [`NoDrop`] | [`NoPush`] |
//! | First Bound | [`SphereRouting`] | [`NoDrop`] | [`OmegaRtt`] |
//! | Information Bound | [`SphereRouting`] | [`ChainBreak`] | [`OmegaRtt`] |
//!
//! Each stage records a wall-clock profile into
//! [`StageMetrics`](crate::metrics::StageMetrics) — diagnostics only,
//! never fed back into the simulated cost model, so event order stays
//! deterministic and bit-identical across hosts. The profile is timed by
//! laps ([`state::Laps`]): one clock read per stage boundary a call crosses,
//! so the stages of a call tile its wall time — `ingress | route` on a
//! submission, `serialize` on a completion, `analyze | route` on a tick, and
//! `route | analyze | egress` on a push cycle. A routing policy that runs
//! the closure scan or emits batches inside its route step laps `analyze` /
//! `egress` at those boundaries itself, leaving `route` the remainder.

pub mod analyze;
pub mod egress;
pub mod ingress;
pub mod push;
pub mod route;
pub mod serialize;
pub mod state;

#[cfg(test)]
mod tests;

pub use analyze::{ChainBreak, DropPolicy, NoDrop};
pub use push::{NoPush, OmegaRtt, PushPolicy};
pub use route::{BroadcastRouting, ClosureRouting, RoutingPolicy, SphereRouting};
pub use state::PipelineState;

use crate::config::{ProtocolConfig, ServerMode};
use crate::engine::ServerNode;
use crate::metrics::ServerMetrics;
use crate::msg::{ToClient, ToServer};
use ingress::Admission;
use seve_net::time::{SimDuration, SimTime};
use seve_world::action::Action;
use seve_world::ids::ClientId;
use seve_world::state::WorldState;
use seve_world::GameWorld;
use std::sync::Arc;

/// The staged serializer server: shared state + three pluggable policies.
pub struct PipelineServer<W: GameWorld> {
    state: PipelineState<W>,
    routing: Box<dyn RoutingPolicy<W>>,
    drops: Box<dyn DropPolicy<W>>,
    push: Box<dyn PushPolicy>,
}

/// A complete policy assembly: how to route, when to drop, when to push.
pub type PolicySet<W> = (
    Box<dyn RoutingPolicy<W>>,
    Box<dyn DropPolicy<W>>,
    Box<dyn PushPolicy>,
);

impl<W: GameWorld> PipelineServer<W> {
    /// Build the server for `cfg.mode` — construction-time policy
    /// selection replaces per-call engine dispatch.
    pub fn new(world: Arc<W>, cfg: ProtocolConfig) -> Self {
        let n = world.num_clients();
        let (routing, drops, push): PolicySet<W> = match cfg.mode {
            ServerMode::Basic => (
                Box::new(BroadcastRouting::new(n)),
                Box::new(NoDrop),
                Box::new(NoPush),
            ),
            ServerMode::Incomplete => {
                (Box::new(ClosureRouting), Box::new(NoDrop), Box::new(NoPush))
            }
            ServerMode::FirstBound => (
                Box::new(SphereRouting::new(world.as_ref(), &cfg)),
                Box::new(NoDrop),
                Box::new(OmegaRtt),
            ),
            ServerMode::InfoBound => (
                Box::new(SphereRouting::new(world.as_ref(), &cfg)),
                Box::new(ChainBreak::new()),
                Box::new(OmegaRtt),
            ),
        };
        Self::with_policies(world, cfg, routing, drops, push)
    }

    /// Assemble a server from explicit policies (custom protocol variants,
    /// tests).
    pub fn with_policies(
        world: Arc<W>,
        cfg: ProtocolConfig,
        routing: Box<dyn RoutingPolicy<W>>,
        drops: Box<dyn DropPolicy<W>>,
        push: Box<dyn PushPolicy>,
    ) -> Self {
        Self {
            state: PipelineState::new(world, cfg),
            routing,
            drops,
            push,
        }
    }

    /// Read access to the shared pipeline state.
    pub fn state(&self) -> &PipelineState<W> {
        &self.state
    }

    /// The authoritative state ζ_S.
    pub fn zeta_s(&self) -> &WorldState {
        &self.state.zeta_s
    }

    /// The last installed position.
    pub fn last_committed(&self) -> u64 {
        self.state.last_committed
    }
}

impl<W: GameWorld> ServerNode<W> for PipelineServer<W> {
    type Up = ToServer<W::Action>;
    type Down = ToClient<W::Action>;

    fn deliver(
        &mut self,
        now: SimTime,
        from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64 {
        match msg {
            ToServer::Submit { action } => {
                if !self.state.in_world(action.read_set())
                    || !self.state.in_world(action.write_set())
                {
                    self.state.metrics.refused += 1;
                    return 0;
                }
                match self.state.admitted.admit(action.id()) {
                    Admission::Fresh => {}
                    Admission::Foreign => {
                        self.state.metrics.refused += 1;
                        return 0;
                    }
                    // At-least-once transports can redeliver a submission;
                    // the first copy already holds its queue position, so a
                    // second admit would serialize the same action twice.
                    Admission::Redelivered => {
                        let cost = self.state.cfg.msg_cost_us;
                        self.state.metrics.compute_us += cost;
                        return cost;
                    }
                }
                let st = &mut self.state;
                st.laps.start();
                self.routing.before_enqueue(st, from, &action);
                let pos = ingress::admit(st, now, action);
                st.laps.lap(&mut st.metrics.stage.ingress);
                let extra = self.routing.on_submit(st, now, from, pos, out);
                st.laps.lap(&mut st.metrics.stage.route);
                let cost = st.cfg.msg_cost_us + extra;
                st.metrics.compute_us += cost;
                cost
            }
            ToServer::Completion {
                pos,
                id: _,
                writes,
                aborted,
            } => {
                if !self.routing.handles_completions() {
                    debug_assert!(false, "this mode's clients do not send completions");
                    return 0;
                }
                if !serialize::writes_declared(&self.state, pos, &writes) {
                    self.state.metrics.refused += 1;
                    return 0;
                }
                let st = &mut self.state;
                st.laps.start();
                serialize::on_completion(st, pos, writes, aborted);
                serialize::maybe_gc_notice(st, out);
                st.laps.lap(&mut st.metrics.stage.serialize);
                let cost = st.cfg.msg_cost_us;
                st.metrics.compute_us += cost;
                cost
            }
        }
    }

    fn tick(&mut self, now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        let st = &mut self.state;
        st.laps.start();
        let analyze_cost = self.drops.analyze(st, now, out);
        st.laps.lap(&mut st.metrics.stage.analyze);
        let route_cost = self.routing.on_tick(st, now, out);
        st.laps.lap(&mut st.metrics.stage.route);
        let cost = analyze_cost + route_cost;
        st.metrics.compute_us += cost;
        cost
    }

    fn push_tick(&mut self, now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        let horizon = self.drops.horizon(&self.state);
        // The policy laps its own phases: selection precedes the closure.
        self.state.laps.start();
        let cost = self.routing.on_push(&mut self.state, now, horizon, out);
        self.state.metrics.compute_us += cost;
        cost
    }

    fn push_period(&self) -> Option<SimDuration> {
        self.push.period(&self.state.cfg)
    }

    fn metrics_mut(&mut self) -> &mut ServerMetrics {
        &mut self.state.metrics
    }

    fn metrics(&self) -> &ServerMetrics {
        &self.state.metrics
    }

    fn committed(&self) -> Option<&WorldState> {
        if self.routing.handles_completions() {
            Some(&self.state.zeta_s)
        } else {
            None
        }
    }
}
