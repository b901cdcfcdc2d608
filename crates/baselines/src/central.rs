//! The Central baseline: all game logic on the server.
//!
//! "Current MMO architectures are server-centric in that all game logic is
//! executed at the servers of the company hosting the game" (Abstract).
//! This baseline models one zone server of Second Life / World of
//! Warcraft: clients submit raw actions, the server evaluates each against
//! its authoritative state (paying the full per-action compute cost —
//! 7.44 ms per Manhattan People move), and ships the resulting state
//! update to the issuer and every client whose avatar can see the effect.
//!
//! Strong consistency is trivial (a single evaluator). The cost is the
//! Figure 6 collapse: once `clients × cost / period` exceeds one machine,
//! the server queue — and with it every response time — grows without
//! bound.

use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve_core::metrics::{ClientMetrics, ServerMetrics};
use seve_net::time::{SimDuration, SimTime};
use seve_world::action::Action;
use seve_world::ids::{ActionId, ClientId, QueuePos};
use seve_world::state::{WorldState, WriteLog};
use seve_world::GameWorld;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Central-baseline tuning.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CentralConfig {
    /// Radius around an action's influence center within which clients
    /// receive the resulting update (the zone/visibility scoping real MMOs
    /// apply; Table I visibility: 30).
    pub interest_radius: f64,
    /// Fixed server cost per message, µs.
    pub msg_cost_us: u64,
    /// Server cost per update receiver, µs — the synchronization and
    /// networking overhead the paper attributes ~60 ms per round to at 32
    /// clients.
    pub per_send_cost_us: u64,
    /// Client cost to render/apply an incoming update, µs.
    pub apply_cost_us: u64,
}

impl Default for CentralConfig {
    fn default() -> Self {
        Self {
            interest_radius: 30.0,
            msg_cost_us: 15,
            per_send_cost_us: 240,
            apply_cost_us: 30,
        }
    }
}

/// Client → server: a raw action for server-side evaluation.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CentralUp<A> {
    /// The action to execute.
    pub action: A,
}

/// Server → client: the state update produced by one action.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CentralDown {
    /// Which action caused it (for issuer response matching).
    pub cause: ActionId,
    /// Serialization position at the server.
    pub pos: QueuePos,
    /// The writes to apply to the client's view.
    pub writes: WriteLog,
    /// Whether the action aborted (no-op).
    pub aborted: bool,
}

/// The thin client: keeps a render view, submits actions, applies updates.
pub struct CentralClient<W: GameWorld> {
    id: ClientId,
    #[allow(dead_code)]
    world: Arc<W>,
    cfg: CentralConfig,
    view: WorldState,
    next_seq: u32,
    submit_times: BTreeMap<u32, SimTime>,
    metrics: ClientMetrics,
}

impl<W: GameWorld> ClientNode<W> for CentralClient<W> {
    type Up = CentralUp<W::Action>;
    type Down = CentralDown;

    fn id(&self) -> ClientId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn optimistic(&self) -> &WorldState {
        &self.view
    }

    fn stable(&self) -> &WorldState {
        &self.view
    }

    fn submit(&mut self, now: SimTime, action: W::Action, out: &mut Vec<Self::Up>) -> u64 {
        debug_assert_eq!(action.id().seq, self.next_seq);
        self.next_seq += 1;
        self.metrics.submitted += 1;
        self.submit_times.insert(action.id().seq, now);
        out.push(CentralUp { action });
        // Thin client: packaging the command is trivial.
        self.cfg.apply_cost_us
    }

    fn deliver(&mut self, now: SimTime, msg: Self::Down, _out: &mut Vec<Self::Up>) -> u64 {
        self.metrics.batches += 1;
        self.view.apply_writes(&msg.writes);
        if msg.cause.client == self.id {
            if let Some(t) = self.submit_times.remove(&msg.cause.seq) {
                self.metrics.response_ms.record((now - t).as_ms_f64());
            }
        }
        self.metrics.compute_us += self.cfg.apply_cost_us;
        self.cfg.apply_cost_us
    }

    fn metrics_mut(&mut self) -> &mut ClientMetrics {
        &mut self.metrics
    }

    fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }
}

/// The authoritative server: evaluates everything.
pub struct CentralServer<W: GameWorld> {
    world: Arc<W>,
    cfg: CentralConfig,
    state: WorldState,
    next_pos: QueuePos,
    metrics: ServerMetrics,
}

impl<W: GameWorld> ServerNode<W> for CentralServer<W> {
    type Up = CentralUp<W::Action>;
    type Down = CentralDown;

    fn deliver(
        &mut self,
        _now: SimTime,
        from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64 {
        let action = msg.action;
        self.metrics.submissions += 1;
        let pos = self.next_pos;
        self.next_pos += 1;
        // THE defining property: the server runs the game logic, paying
        // the full evaluation cost for every action of every client.
        let outcome = action.evaluate(self.world.env(), &self.state);
        if !outcome.aborted {
            self.state.apply_writes(&outcome.writes);
        }
        self.metrics.installed += 1;
        let down = CentralDown {
            cause: action.id(),
            pos,
            writes: outcome.writes,
            aborted: outcome.aborted,
        };
        // Interest scoping: the issuer plus everyone whose avatar is near
        // the action.
        let center = action.influence().center;
        let mut receivers = 0usize;
        for i in 0..self.world.num_clients() {
            let c = ClientId(i as u16);
            let near = self
                .world
                .position_in(&self.state, self.world.avatar_object(c))
                .is_some_and(|p| p.dist(center) <= self.cfg.interest_radius);
            if c == from || near {
                receivers += 1;
                out.push((c, down.clone()));
            }
        }
        self.metrics.batch_items.record(receivers as f64);
        let cost = self.cfg.msg_cost_us
            + self.world.eval_cost_micros(&action)
            + self.cfg.per_send_cost_us * receivers as u64;
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
        Some(&self.state)
    }
}

/// Suite for the Central baseline.
#[derive(Clone, Debug, Default)]
pub struct CentralSuite {
    /// Tuning knobs.
    pub cfg: CentralConfig,
}

impl CentralSuite {
    /// A suite with the given interest radius.
    pub fn with_interest_radius(radius: f64) -> Self {
        Self {
            cfg: CentralConfig {
                interest_radius: radius,
                ..CentralConfig::default()
            },
        }
    }
}

impl<W: GameWorld> ProtocolSuite<W> for CentralSuite {
    type Up = CentralUp<W::Action>;
    type Down = CentralDown;
    type Client = CentralClient<W>;
    type Server = CentralServer<W>;

    fn name(&self) -> &'static str {
        "Central"
    }

    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>) {
        let clients = (0..world.num_clients())
            .map(|i| CentralClient {
                id: ClientId(i as u16),
                world: Arc::clone(&world),
                cfg: self.cfg.clone(),
                view: world.initial_state(),
                next_seq: 0,
                submit_times: BTreeMap::new(),
                metrics: ClientMetrics::default(),
            })
            .collect();
        let server = CentralServer {
            state: world.initial_state(),
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
    use seve_world::worlds::manhattan::{
        ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
    };
    use seve_world::worlds::Workload;

    fn setup() -> (
        Arc<ManhattanWorld>,
        CentralServer<ManhattanWorld>,
        Vec<CentralClient<ManhattanWorld>>,
    ) {
        let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
            width: 200.0,
            height: 200.0,
            walls: 0,
            clients: 4,
            spawn: SpawnPattern::Grid { spacing: 10.0 },
            ..ManhattanConfig::default()
        }));
        let suite = CentralSuite::default();
        let (server, clients) =
            <CentralSuite as ProtocolSuite<ManhattanWorld>>::build(&suite, Arc::clone(&world));
        (world, server, clients)
    }

    #[test]
    fn server_evaluates_and_updates_interested_clients() {
        let (world, mut server, mut clients) = setup();
        let mut wl = ManhattanWorkload::new(&world);
        let action = wl
            .next_action(ClientId(0), 0, clients[0].optimistic(), 0)
            .unwrap();
        let mut up = Vec::new();
        let cost_c = clients[0].submit(SimTime::ZERO, action, &mut up);
        assert!(cost_c < 1000, "thin client pays almost nothing");
        assert_eq!(up.len(), 1);
        let mut down = Vec::new();
        let cost_s = server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        assert!(
            cost_s > 400,
            "server pays the full evaluation cost, got {cost_s}"
        );
        // Grid spacing 10 and interest radius 30: everyone nearby receives
        // the update, and the issuer certainly does.
        assert!(down.iter().any(|(c, _)| *c == ClientId(0)));
        // The update moves the avatar on the server's state.
        assert!(server.committed().is_some());
    }

    #[test]
    fn issuer_response_is_recorded_on_echo() {
        let (world, mut server, mut clients) = setup();
        let mut wl = ManhattanWorkload::new(&world);
        let action = wl
            .next_action(ClientId(1), 0, clients[1].optimistic(), 0)
            .unwrap();
        let mut up = Vec::new();
        clients[1].submit(SimTime::ZERO, action, &mut up);
        let mut down = Vec::new();
        server.deliver(
            SimTime::from_ms(119),
            ClientId(1),
            up.pop().unwrap(),
            &mut down,
        );
        let (_, msg) = down
            .iter()
            .find(|(c, _)| *c == ClientId(1))
            .cloned()
            .unwrap();
        let mut sink = Vec::new();
        clients[1].deliver(SimTime::from_ms(238), msg, &mut sink);
        assert_eq!(clients[1].metrics().response_ms.count(), 1);
        assert!((clients[1].metrics().response_ms.mean() - 238.0).abs() < 1e-9);
    }

    #[test]
    fn far_clients_do_not_receive_updates() {
        let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
            width: 1000.0,
            height: 1000.0,
            walls: 0,
            clients: 2,
            spawn: SpawnPattern::Grid { spacing: 500.0 },
            ..ManhattanConfig::default()
        }));
        let suite = CentralSuite::default();
        let (mut server, mut clients) =
            <CentralSuite as ProtocolSuite<ManhattanWorld>>::build(&suite, Arc::clone(&world));
        let mut wl = ManhattanWorkload::new(&world);
        let action = wl
            .next_action(ClientId(0), 0, clients[0].optimistic(), 0)
            .unwrap();
        let mut up = Vec::new();
        clients[0].submit(SimTime::ZERO, action, &mut up);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        assert!(
            down.iter().all(|(c, _)| *c == ClientId(0)),
            "500 apart ≫ 30"
        );
    }
}
