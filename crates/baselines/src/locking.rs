//! The distributed lock-based protocol of Section II-B.
//!
//! "In order to process a transaction, a client must acquire global locks
//! on the objects read and written by the transaction. ... If it obtained
//! all the necessary locks, the client executes the transaction on its
//! local state and transmits the effect of the transaction to the server.
//! The server then transmits this effect to all other clients." (Project
//! Darkstar model.)
//!
//! The paper's two criticisms, both observable here:
//!
//! * "the minimum time required by a client to proceed to the next
//!   conflicting transaction is twice the round trip time" — a waiter
//!   queues behind the holder's full request→grant→execute→effect cycle;
//! * consistency resolution is *object* based — the designer must map
//!   every semantic conflict onto object locks.
//!
//! Locks are granted in submission order with an all-or-nothing rule (a
//! transaction is granted only when all its objects are free and no older
//! waiter conflicts with it), so the protocol is deadlock- and
//! starvation-free.

use seve_core::cost::Meter;
use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve_core::metrics::{ClientMetrics, ServerMetrics};
use seve_net::time::{SimDuration, SimTime};
use seve_world::action::Action;
use seve_world::ids::{ActionId, ClientId, ObjectId, QueuePos};
use seve_world::objset::ObjectSet;
use seve_world::state::{WorldState, WriteLog};
use seve_world::GameWorld;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Locking-baseline tuning.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LockingConfig {
    /// Server cost per message, µs.
    pub msg_cost_us: u64,
    /// Client cost to apply a remote effect, µs.
    pub apply_cost_us: u64,
}

impl Default for LockingConfig {
    fn default() -> Self {
        Self {
            msg_cost_us: 15,
            apply_cost_us: 30,
        }
    }
}

/// Client → server messages.
#[derive(Clone, Debug, serde::Serialize)]
pub enum LockUp<A> {
    /// Request locks on the action's read set.
    Request {
        /// The transaction to run once granted.
        action: A,
    },
    /// The executed effect of a granted transaction.
    Effect {
        /// The grant's queue position.
        pos: QueuePos,
        /// Transaction identity.
        id: ActionId,
        /// Computed writes.
        writes: WriteLog,
        /// Whether the transaction aborted as a no-op.
        aborted: bool,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, serde::Serialize)]
pub enum LockDown {
    /// All locks acquired: execute now.
    Grant {
        /// The grant's queue position.
        pos: QueuePos,
        /// The granted transaction.
        id: ActionId,
    },
    /// A committed effect, broadcast to every client.
    Update {
        /// The transaction's position.
        pos: QueuePos,
        /// The issuer's transaction id.
        cause: ActionId,
        /// Writes to apply.
        writes: WriteLog,
        /// Whether the transaction was a no-op.
        aborted: bool,
    },
}

struct WaitingTxn {
    issuer: ClientId,
    id: ActionId,
    objects: ObjectSet,
    granted: bool,
}

/// The lock-manager server.
pub struct LockingServer<W: GameWorld> {
    world: Arc<W>,
    cfg: LockingConfig,
    state: WorldState,
    next_pos: QueuePos,
    waiting: BTreeMap<QueuePos, WaitingTxn>,
    held: HashMap<ObjectId, QueuePos>,
    metrics: ServerMetrics,
}

impl<W: GameWorld> LockingServer<W> {
    fn try_grant(&mut self, out: &mut Vec<(ClientId, LockDown)>) {
        // Grant in position order; a transaction is eligible when all its
        // objects are free and no older ungranted transaction conflicts.
        let mut shadow: ObjectSet = ObjectSet::new(); // objects wanted by older ungranted txns
        let mut grants = Vec::new();
        for (&pos, txn) in self.waiting.iter() {
            if txn.granted {
                continue;
            }
            let free = txn.objects.iter().all(|o| !self.held.contains_key(&o));
            let unshadowed = !txn.objects.intersects(&shadow);
            if free && unshadowed {
                grants.push(pos);
            }
            shadow.union_with(&txn.objects);
        }
        for pos in grants {
            let txn = self.waiting.get_mut(&pos).expect("eligible txn exists");
            txn.granted = true;
            for o in txn.objects.iter() {
                self.held.insert(o, pos);
            }
            out.push((txn.issuer, LockDown::Grant { pos, id: txn.id }));
        }
    }
}

impl<W: GameWorld> ServerNode<W> for LockingServer<W> {
    type Up = LockUp<W::Action>;
    type Down = LockDown;

    fn deliver(
        &mut self,
        _now: SimTime,
        from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64 {
        match msg {
            LockUp::Request { action } => {
                self.metrics.submissions += 1;
                let pos = self.next_pos;
                self.next_pos += 1;
                self.waiting.insert(
                    pos,
                    WaitingTxn {
                        issuer: from,
                        id: action.id(),
                        objects: action.read_set().clone(),
                        granted: false,
                    },
                );
                self.metrics.max_queue_len = self.metrics.max_queue_len.max(self.waiting.len());
                self.try_grant(out);
                let cost = self.cfg.msg_cost_us;
                self.metrics.compute_us += cost;
                cost
            }
            LockUp::Effect {
                pos,
                id,
                writes,
                aborted,
            } => {
                if !aborted {
                    self.state.apply_writes(&writes);
                }
                self.metrics.installed += 1;
                // Release locks.
                if let Some(txn) = self.waiting.remove(&pos) {
                    for o in txn.objects.iter() {
                        if self.held.get(&o) == Some(&pos) {
                            self.held.remove(&o);
                        }
                    }
                }
                // Broadcast the effect.
                for i in 0..self.world.num_clients() {
                    out.push((
                        ClientId(i as u16),
                        LockDown::Update {
                            pos,
                            cause: id,
                            writes: writes.clone(),
                            aborted,
                        },
                    ));
                }
                self.try_grant(out);
                let cost = self.cfg.msg_cost_us;
                self.metrics.compute_us += cost;
                cost
            }
        }
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

/// The locking client: request, await grant, execute, publish.
pub struct LockingClient<W: GameWorld> {
    id: ClientId,
    world: Arc<W>,
    cfg: LockingConfig,
    state: WorldState,
    next_seq: u32,
    pending: HashMap<ActionId, W::Action>,
    submit_times: BTreeMap<u32, SimTime>,
    metrics: ClientMetrics,
    meter: Meter,
}

impl<W: GameWorld> ClientNode<W> for LockingClient<W> {
    type Up = LockUp<W::Action>;
    type Down = LockDown;

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

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn submit(&mut self, now: SimTime, action: W::Action, out: &mut Vec<Self::Up>) -> u64 {
        debug_assert_eq!(action.id().seq, self.next_seq);
        self.next_seq += 1;
        self.metrics.submitted += 1;
        self.submit_times.insert(action.id().seq, now);
        self.pending.insert(action.id(), action.clone());
        out.push(LockUp::Request { action });
        self.cfg.apply_cost_us
    }

    fn deliver(&mut self, now: SimTime, msg: Self::Down, out: &mut Vec<Self::Up>) -> u64 {
        match msg {
            LockDown::Grant { pos, id } => {
                let Some(action) = self.pending.remove(&id) else {
                    debug_assert!(false, "grant for unknown txn {id:?}");
                    return 0;
                };
                // We hold all locks: execute on the local replica; the
                // result is final.
                let outcome = action.evaluate(self.world.env(), &self.state);
                self.state.apply_writes(&outcome.writes);
                if let Some(t) = self.submit_times.remove(&id.seq) {
                    self.metrics.response_ms.record((now - t).as_ms_f64());
                }
                self.metrics.evaluations += 1;
                let cost = self.meter.evaluated(self.world.as_ref(), &action);
                self.metrics.compute_us += cost;
                out.push(LockUp::Effect {
                    pos,
                    id,
                    writes: outcome.writes,
                    aborted: outcome.aborted,
                });
                cost
            }
            LockDown::Update { cause, writes, .. } => {
                self.metrics.batches += 1;
                if cause.client != self.id {
                    self.state.apply_writes(&writes);
                }
                self.metrics.compute_us += self.cfg.apply_cost_us;
                self.cfg.apply_cost_us
            }
        }
    }

    fn metrics_mut(&mut self) -> &mut ClientMetrics {
        &mut self.metrics
    }

    fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    fn install_meter(&mut self, meter: Meter) {
        self.meter = meter;
    }
}

/// Suite for the lock-based baseline.
#[derive(Clone, Debug, Default)]
pub struct LockingSuite {
    /// Tuning knobs.
    pub cfg: LockingConfig,
}

impl<W: GameWorld> ProtocolSuite<W> for LockingSuite {
    type Up = LockUp<W::Action>;
    type Down = LockDown;
    type Client = LockingClient<W>;
    type Server = LockingServer<W>;

    fn name(&self) -> &'static str {
        "Locking"
    }

    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>) {
        let clients = (0..world.num_clients())
            .map(|i| LockingClient {
                id: ClientId(i as u16),
                world: Arc::clone(&world),
                cfg: self.cfg.clone(),
                state: world.initial_state(),
                next_seq: 0,
                pending: HashMap::new(),
                submit_times: BTreeMap::new(),
                metrics: ClientMetrics::default(),
                meter: Meter::default(),
            })
            .collect();
        let server = LockingServer {
            state: world.initial_state(),
            cfg: self.cfg.clone(),
            next_pos: 1,
            waiting: BTreeMap::new(),
            held: HashMap::new(),
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
        LockingServer<DiningWorld>,
        Vec<LockingClient<DiningWorld>>,
    ) {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: n,
            ..DiningConfig::default()
        }));
        let suite = LockingSuite::default();
        let (s, c) =
            <LockingSuite as ProtocolSuite<DiningWorld>>::build(&suite, Arc::clone(&world));
        (world, s, c)
    }

    #[test]
    fn uncontended_request_is_granted_immediately() {
        let (world, mut server, mut clients) = setup(4);
        let mut up = Vec::new();
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        assert!(matches!(down.as_slice(), [(c, LockDown::Grant { .. })] if *c == ClientId(0)));
    }

    #[test]
    fn conflicting_request_waits_until_effect_releases_locks() {
        let (world, mut server, mut clients) = setup(4);
        let mut up = Vec::new();
        let mut down = Vec::new();
        // Philosopher 0 requests and is granted.
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up);
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        let grant0 = down.pop().unwrap().1;
        // Philosopher 1 shares fork 1: request must queue.
        clients[1].submit(SimTime::ZERO, world.grab(ClientId(1), 0), &mut up);
        server.deliver(SimTime::ZERO, ClientId(1), up.pop().unwrap(), &mut down);
        assert!(down.is_empty(), "conflicting txn blocked");
        // Philosopher 0 executes and publishes: locks release, 1 granted.
        clients[0].deliver(SimTime::from_ms(238), grant0, &mut up);
        server.deliver(
            SimTime::from_ms(300),
            ClientId(0),
            up.pop().unwrap(),
            &mut down,
        );
        let grants: Vec<_> = down
            .iter()
            .filter(|(_, m)| matches!(m, LockDown::Grant { .. }))
            .collect();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, ClientId(1));
        // And everyone received the update.
        let updates = down
            .iter()
            .filter(|(_, m)| matches!(m, LockDown::Update { .. }))
            .count();
        assert_eq!(updates, 4);
    }

    #[test]
    fn older_waiter_shadows_younger_conflicting_txn() {
        let (world, mut server, mut clients) = setup(4);
        let mut up = Vec::new();
        let mut down = Vec::new();
        // 0 granted (forks 0, 1).
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up);
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        down.clear();
        // 1 waits (fork 1 held; wants forks 1, 2).
        clients[1].submit(SimTime::ZERO, world.grab(ClientId(1), 0), &mut up);
        server.deliver(SimTime::ZERO, ClientId(1), up.pop().unwrap(), &mut down);
        // 2 wants forks 2, 3 — free, but fork 2 is shadowed by waiter 1:
        // granting 2 would starve 1.
        clients[2].submit(SimTime::ZERO, world.grab(ClientId(2), 0), &mut up);
        server.deliver(SimTime::ZERO, ClientId(2), up.pop().unwrap(), &mut down);
        assert!(
            down.is_empty(),
            "younger conflicting txn must not jump the queue"
        );
        // 3 wants forks 3, 0 — fork 0 held by txn 0. Waits too.
        clients[3].submit(SimTime::ZERO, world.grab(ClientId(3), 0), &mut up);
        server.deliver(SimTime::ZERO, ClientId(3), up.pop().unwrap(), &mut down);
        assert!(down.is_empty());
    }
}
