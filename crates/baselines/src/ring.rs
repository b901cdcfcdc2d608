//! The RING-like baseline: visibility-filtered action forwarding.
//!
//! "RING and DIVE handle message filtering by sending all updates to the
//! central server. The server tracks the current location of each entity,
//! and it can determine which users would not be interested in a particular
//! update. ... However, in both these systems, the server forwards updates
//! only to users who can 'see' the entity, leading to inconsistency"
//! (Section VI; the Figure 2/3 argument).
//!
//! This server reuses SEVE's client engine and push cadence but replaces
//! the semantic machinery with the *syntactic* visibility test: an action
//! is pushed to a client iff the issuer is within the client's visibility
//! radius. No transitive closure, no blind writes — so a client can
//! evaluate an action whose inputs were written by actions it never saw,
//! and replicas diverge. The consistency oracle counts exactly those
//! divergences, which is the measurement accompanying Figure 10.

use seve_core::client::SeveClient;
use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::cost::Meter;
use seve_core::engine::{ProtocolSuite, ServerNode};
use seve_core::metrics::ServerMetrics;
use seve_core::msg::{Item, ToClient, ToServer};
use seve_core::pipeline::{ingress, serialize, PipelineState};
use seve_net::time::{SimDuration, SimTime};
use seve_world::geometry::Vec2;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::state::WorldState;
use seve_world::{Action, GameWorld};
use std::sync::Arc;

/// The visibility-filtering server.
pub struct RingServer<W: GameWorld> {
    base: PipelineState<W>,
    /// Avatar visibility radius (Table I: 30 units).
    visibility: f64,
    client_pos: Vec<Vec2>,
    last_push_pos: Vec<QueuePos>,
}

impl<W: GameWorld> RingServer<W> {
    /// Build the server with the given visibility radius.
    pub fn new(world: Arc<W>, cfg: ProtocolConfig, visibility: f64) -> Self {
        let n = world.num_clients();
        let initial = world.initial_state();
        let client_pos = (0..n)
            .map(|i| {
                let c = ClientId(i as u16);
                world
                    .position_in(&initial, world.avatar_object(c))
                    .unwrap_or(Vec2::ZERO)
            })
            .collect();
        Self {
            base: PipelineState::new(world, cfg),
            visibility,
            client_pos,
            last_push_pos: vec![0; n],
        }
    }
}

impl<W: GameWorld> ServerNode<W> for RingServer<W> {
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
                self.client_pos[from.index()] = action.influence().center;
                ingress::admit(&mut self.base, now, action);
                let cost = self.base.meter.message();
                self.base.metrics.compute_us += cost;
                cost
            }
            ToServer::Completion {
                pos,
                id: _,
                writes,
                aborted,
            } => {
                serialize::on_completion(&mut self.base, pos, writes, aborted);
                serialize::maybe_gc_notice(&mut self.base, out);
                let cost = self.base.meter.message();
                self.base.metrics.compute_us += cost;
                cost
            }
        }
    }

    fn tick(&mut self, _now: SimTime, _out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        0
    }

    fn push_tick(&mut self, _now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64 {
        let Some(horizon) = self.base.queue.last_pos() else {
            return 0;
        };
        let n = self.base.num_clients();
        let mut cost = 0u64;
        for i in 0..n {
            let client = ClientId(i as u16);
            let lo = self.last_push_pos[i] + 1;
            let mut items = Vec::new();
            let mut scanned = 0usize;
            for pos in lo..=horizon {
                let Some(e) = self.base.queue.get(pos) else {
                    continue;
                };
                scanned += 1;
                if e.sent.contains(client) {
                    continue;
                }
                let own = e.action.issuer() == client;
                // The RING test: can this client SEE the issuer? Purely
                // syntactic — no reasoning about what the action reads.
                let visible = e.influence.center.dist(self.client_pos[i]) <= self.visibility;
                if own || visible {
                    items.push(Item::action(pos, e.action.clone()));
                    self.base
                        .queue
                        .get_mut(pos)
                        .expect("just read")
                        .sent
                        .insert(client);
                }
            }
            self.last_push_pos[i] = horizon;
            if !items.is_empty() {
                self.base.metrics.batch_items.record(items.len() as f64);
                cost += self.base.meter.message() + self.base.meter.scanned(scanned);
                // Per-client visibility makes every batch its own frame.
                self.base.metrics.stage.frames_encoded += 1;
                out.push((
                    client,
                    ToClient::Batch {
                        items: items.into(),
                    },
                ));
            }
        }
        self.base.metrics.compute_us += cost;
        cost
    }

    fn tick_period(&self) -> SimDuration {
        self.base.cfg.tick
    }

    fn push_period(&self) -> Option<SimDuration> {
        Some(self.base.cfg.push_period())
    }

    fn metrics_mut(&mut self) -> &mut ServerMetrics {
        &mut self.base.metrics
    }

    fn metrics(&self) -> &ServerMetrics {
        &self.base.metrics
    }

    fn committed(&self) -> Option<&WorldState> {
        Some(&self.base.zeta_s)
    }

    fn install_meter(&mut self, meter: Meter) {
        self.base.meter = meter;
    }
}

/// Suite for the RING-like baseline.
#[derive(Clone, Debug)]
pub struct RingSuite {
    /// Visibility radius.
    pub visibility: f64,
    /// Shared protocol plumbing (push period, costs). Mode is forced to
    /// `Incomplete` so clients send completions.
    pub cfg: ProtocolConfig,
}

impl RingSuite {
    /// A suite with the given visibility radius and Table I defaults.
    pub fn new(visibility: f64) -> Self {
        Self {
            visibility,
            cfg: ProtocolConfig::with_mode(ServerMode::Incomplete),
        }
    }
}

impl<W: GameWorld> ProtocolSuite<W> for RingSuite {
    type Up = ToServer<W::Action>;
    type Down = ToClient<W::Action>;
    type Client = SeveClient<W>;
    type Server = RingServer<W>;

    fn name(&self) -> &'static str {
        "RING"
    }

    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>) {
        let clients = (0..world.num_clients())
            .map(|i| SeveClient::new(ClientId(i as u16), Arc::clone(&world), &self.cfg))
            .collect();
        let server = RingServer::new(world, self.cfg.clone(), self.visibility);
        (server, clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_core::engine::ClientNode;
    use seve_world::worlds::manhattan::{
        ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
    };
    use seve_world::worlds::Workload;

    fn world(clients: usize, spacing: f64) -> Arc<ManhattanWorld> {
        Arc::new(ManhattanWorld::new(ManhattanConfig {
            width: 1000.0,
            height: 1000.0,
            walls: 0,
            clients,
            spawn: SpawnPattern::Grid { spacing },
            ..ManhattanConfig::default()
        }))
    }

    #[test]
    fn pushes_only_to_clients_that_see_the_issuer() {
        let w = world(3, 100.0); // grid spacing 100 ≫ visibility 30
        let suite = RingSuite::new(30.0);
        let (mut server, mut clients) =
            <RingSuite as ProtocolSuite<ManhattanWorld>>::build(&suite, Arc::clone(&w));
        let mut wl = ManhattanWorkload::new(&w);
        let a = wl
            .next_action(ClientId(0), 0, clients[0].optimistic(), 0)
            .unwrap();
        let mut up = Vec::new();
        clients[0].submit(SimTime::ZERO, a, &mut up);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        assert!(down.is_empty(), "no immediate replies");
        server.push_tick(SimTime::from_ms(60), &mut down);
        let receivers: Vec<ClientId> = down.iter().map(|(c, _)| *c).collect();
        assert_eq!(
            receivers,
            vec![ClientId(0)],
            "only the issuer; others are blind"
        );
    }

    #[test]
    fn nearby_clients_receive_the_action() {
        let w = world(3, 10.0); // spacing 10 < visibility 30
        let suite = RingSuite::new(30.0);
        let (mut server, mut clients) =
            <RingSuite as ProtocolSuite<ManhattanWorld>>::build(&suite, Arc::clone(&w));
        let mut wl = ManhattanWorkload::new(&w);
        let a = wl
            .next_action(ClientId(1), 0, clients[1].optimistic(), 0)
            .unwrap();
        let mut up = Vec::new();
        clients[1].submit(SimTime::ZERO, a, &mut up);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(1), up.pop().unwrap(), &mut down);
        server.push_tick(SimTime::from_ms(60), &mut down);
        let mut receivers: Vec<u16> = down.iter().map(|(c, _)| c.0).collect();
        receivers.sort_unstable();
        assert_eq!(receivers, vec![0, 1, 2], "everyone within 30 units sees it");
    }
}
