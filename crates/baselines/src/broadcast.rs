//! The Broadcast baseline: the NPSNET / SIMNET model.
//!
//! "NPSNET follows a basic object based broadcast model. It broadcasts
//! messages to all workstations at once, yielding O(N) update requests for
//! N workstations. However, the computational requirement from each client
//! is the same" (Section VI) — every node simulates every entity.
//!
//! Mechanics here: a client executes its own action immediately on its
//! local replica (dead reckoning style — no rollback, no optimism
//! machinery) and sends it to the relay server, which stamps an order and
//! forwards it to *every other* client. Receivers evaluate the action
//! against their own replica at full simulation cost. Two consequences the
//! paper measures:
//!
//! * per-client compute equals the Central server's (Figures 6, 7) — the
//!   same collapse, now at every node;
//! * server→client traffic is Θ(N²) (Figure 9).
//!
//! Because issuers execute against *unserialized* local state and nobody
//! reconciles, replicas can evaluate the same action differently; the
//! consistency oracle counts those divergences.

use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve_core::metrics::{ClientMetrics, EvalRecord, ServerMetrics};
use seve_net::time::{SimDuration, SimTime};
use seve_world::action::Action;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::state::WorldState;
use seve_world::GameWorld;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Broadcast tuning.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BroadcastConfig {
    /// Relay cost per message at the server, µs.
    pub msg_cost_us: u64,
    /// Relay cost per broadcast receiver, µs.
    pub per_send_cost_us: u64,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        Self {
            msg_cost_us: 10,
            per_send_cost_us: 8,
        }
    }
}

/// Client → server: an executed action to broadcast.
#[derive(Clone, Debug, serde::Serialize)]
pub struct BcastUp<A> {
    /// The action.
    pub action: A,
}

/// Server → client: a relayed action with its broadcast order.
#[derive(Clone, Debug, serde::Serialize)]
pub struct BcastDown<A> {
    /// Relay order stamp.
    pub pos: QueuePos,
    /// The action to simulate.
    pub action: A,
}

/// A full-simulation client node.
pub struct BroadcastClient<W: GameWorld> {
    id: ClientId,
    world: Arc<W>,
    state: WorldState,
    next_seq: u32,
    submit_times: BTreeMap<u32, SimTime>,
    metrics: ClientMetrics,
}

impl<W: GameWorld> ClientNode<W> for BroadcastClient<W> {
    type Up = BcastUp<W::Action>;
    type Down = BcastDown<W::Action>;

    fn id(&self) -> ClientId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn optimistic(&self) -> &WorldState {
        &self.state
    }

    fn stable(&self) -> &WorldState {
        &self.state
    }

    fn submit(&mut self, now: SimTime, action: W::Action, out: &mut Vec<Self::Up>) -> u64 {
        debug_assert_eq!(action.id().seq, self.next_seq);
        self.next_seq += 1;
        self.metrics.submitted += 1;
        // Execute locally, immediately, with no rollback path.
        let outcome = action.evaluate(self.world.env(), &self.state);
        self.state.apply_writes(&outcome.writes);
        let cost = self.world.eval_cost_micros(&action);
        self.metrics.evaluations += 1;
        self.metrics.compute_us += cost;
        self.submit_times.insert(action.id().seq, now);
        out.push(BcastUp { action });
        cost
    }

    fn deliver(&mut self, now: SimTime, msg: Self::Down, _out: &mut Vec<Self::Up>) -> u64 {
        self.metrics.batches += 1;
        let action = msg.action;
        if action.issuer() == self.id {
            // Echo of our own action: already executed locally; the echo
            // closes the response-time loop (the move is now ordered).
            if let Some(t) = self.submit_times.remove(&action.id().seq) {
                self.metrics.response_ms.record((now - t).as_ms_f64());
            }
            return 0;
        }
        // Simulate the remote entity's action at full cost — every SIMNET
        // node runs the whole world.
        let mut missing = 0u32;
        let mut input_digest = 0xcbf2_9ce4_8422_2325u64;
        for o in action.read_set().iter() {
            match self.state.get(o) {
                Some(obj) => input_digest = obj.fold_digest(input_digest),
                None => missing += 1,
            }
        }
        let outcome = action.evaluate(self.world.env(), &self.state);
        self.metrics.eval_records.push(EvalRecord {
            pos: msg.pos,
            id: action.id(),
            digest: outcome.digest(),
            input_digest,
            missing_reads: missing,
        });
        self.state.apply_writes(&outcome.writes);
        let cost = self.world.eval_cost_micros(&action);
        self.metrics.evaluations += 1;
        self.metrics.compute_us += cost;
        cost
    }

    fn metrics_mut(&mut self) -> &mut ClientMetrics {
        &mut self.metrics
    }

    fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }
}

/// The pure relay server.
pub struct BroadcastServer<W: GameWorld> {
    world: Arc<W>,
    cfg: BroadcastConfig,
    next_pos: QueuePos,
    metrics: ServerMetrics,
}

impl<W: GameWorld> ServerNode<W> for BroadcastServer<W> {
    type Up = BcastUp<W::Action>;
    type Down = BcastDown<W::Action>;

    fn deliver(
        &mut self,
        _now: SimTime,
        _from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64 {
        self.metrics.submissions += 1;
        let pos = self.next_pos;
        self.next_pos += 1;
        let n = self.world.num_clients();
        for i in 0..n {
            out.push((
                ClientId(i as u16),
                BcastDown {
                    pos,
                    action: msg.action.clone(),
                },
            ));
        }
        self.metrics.batch_items.record(n as f64);
        let cost = self.cfg.msg_cost_us + self.cfg.per_send_cost_us * n as u64;
        self.metrics.compute_us += cost;
        cost
    }

    fn tick(&mut self, _now: SimTime, _out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        0
    }

    fn push_tick(&mut self, _now: SimTime, _out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        0
    }

    fn push_period(&self) -> Option<SimDuration> {
        None
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

/// Suite for the Broadcast baseline.
#[derive(Clone, Debug, Default)]
pub struct BroadcastSuite {
    /// Tuning knobs.
    pub cfg: BroadcastConfig,
}

impl<W: GameWorld> ProtocolSuite<W> for BroadcastSuite {
    type Up = BcastUp<W::Action>;
    type Down = BcastDown<W::Action>;
    type Client = BroadcastClient<W>;
    type Server = BroadcastServer<W>;

    fn name(&self) -> &'static str {
        "Broadcast"
    }

    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>) {
        let clients = (0..world.num_clients())
            .map(|i| BroadcastClient {
                id: ClientId(i as u16),
                world: Arc::clone(&world),
                state: world.initial_state(),
                next_seq: 0,
                submit_times: BTreeMap::new(),
                metrics: ClientMetrics::default(),
            })
            .collect();
        let server = BroadcastServer {
            cfg: self.cfg.clone(),
            next_pos: 1,
            metrics: ServerMetrics::default(),
            world,
        };
        (server, clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::worlds::dining::{DiningConfig, DiningWorld};

    fn setup(
        n: usize,
    ) -> (
        Arc<DiningWorld>,
        BroadcastServer<DiningWorld>,
        Vec<BroadcastClient<DiningWorld>>,
    ) {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: n,
            ..DiningConfig::default()
        }));
        let suite = BroadcastSuite::default();
        let (s, c) =
            <BroadcastSuite as ProtocolSuite<DiningWorld>>::build(&suite, Arc::clone(&world));
        (world, s, c)
    }

    #[test]
    fn relay_fans_out_to_everyone() {
        let (world, mut server, mut clients) = setup(5);
        let mut up = Vec::new();
        clients[2].submit(SimTime::ZERO, world.grab(ClientId(2), 0), &mut up);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(2), up.pop().unwrap(), &mut down);
        assert_eq!(down.len(), 5, "every client, issuer included");
    }

    #[test]
    fn issuer_executes_immediately_receivers_pay_full_cost() {
        let (world, mut server, mut clients) = setup(4);
        let mut up = Vec::new();
        let c_cost = clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up);
        assert!(c_cost > 0, "issuer simulates its own action");
        // Issuer's fork is taken locally at once.
        let held = clients[0].state.attr(
            seve_world::worlds::dining::fork(0, 4),
            seve_world::worlds::dining::HOLDER,
        );
        assert_eq!(held, Some(0i64.into()));
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        // A receiver pays evaluation cost and records for the oracle.
        let (_, msg) = down
            .iter()
            .find(|(c, _)| *c == ClientId(1))
            .cloned()
            .unwrap();
        let r_cost = clients[1].deliver(SimTime::from_ms(1), msg, &mut Vec::new());
        assert!(r_cost > 0);
        assert_eq!(clients[1].metrics().eval_records.len(), 1);
        // The echo to the issuer records response and costs nothing more.
        let (_, echo) = down
            .iter()
            .find(|(c, _)| *c == ClientId(0))
            .cloned()
            .unwrap();
        let e_cost = clients[0].deliver(SimTime::from_ms(238), echo, &mut Vec::new());
        assert_eq!(e_cost, 0);
        assert_eq!(clients[0].metrics().response_ms.count(), 1);
    }

    #[test]
    fn conflicting_local_executions_can_diverge() {
        // Both neighbours grab the shared fork before hearing from each
        // other: each succeeds locally — the lost-update anomaly of
        // unsynchronized broadcast simulation.
        let (world, _server, mut clients) = setup(4);
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut Vec::new());
        clients[1].submit(SimTime::ZERO, world.grab(ClientId(1), 0), &mut Vec::new());
        let f1 = seve_world::worlds::dining::fork(1, 4);
        let h0 = clients[0]
            .state
            .attr(f1, seve_world::worlds::dining::HOLDER);
        let h1 = clients[1]
            .state
            .attr(f1, seve_world::worlds::dining::HOLDER);
        assert_eq!(h0, Some(0i64.into()));
        assert_eq!(h1, Some(1i64.into()), "replicas disagree about fork 1");
    }
}
