//! Optimistic timestamp ordering with backward certification —
//! Section II-B's second classical protocol.
//!
//! "Clients optimistically execute tentative actions against their local,
//! possibly stale versions of objects. The server integrates the local,
//! transactional histories submitted by clients into a global multiversion
//! history" and certifies: a transaction commits iff every object it read
//! is still at the version it read (Sinha et al., SIGMOD '85). Stale
//! transactions abort and the client retries against refreshed state —
//! "any change in the read set of a transaction, such as some player
//! moving, would potentially cause the transaction to abort", which is why
//! contention makes this protocol unusable for fast-paced worlds.

use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve_core::metrics::{ClientMetrics, ServerMetrics};
use seve_net::time::{SimDuration, SimTime};
use seve_world::action::Action;
use seve_world::ids::{ActionId, ClientId, ObjectId, QueuePos};
use seve_world::state::{Snapshot, WorldState, WriteLog};
use seve_world::GameWorld;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Timestamp-ordering tuning.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimestampConfig {
    /// Server cost per certification, µs.
    pub msg_cost_us: u64,
    /// Client cost to apply a remote update, µs.
    pub apply_cost_us: u64,
    /// Give up after this many aborts of the same transaction.
    pub max_retries: u32,
}

impl Default for TimestampConfig {
    fn default() -> Self {
        Self {
            msg_cost_us: 20,
            apply_cost_us: 30,
            max_retries: 8,
        }
    }
}

/// Client → server: a tentatively executed transaction for certification.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TsUp<A> {
    /// The transaction.
    pub action: A,
    /// Version of each read object at execution time.
    pub read_versions: Vec<(ObjectId, u64)>,
    /// Retry attempt counter.
    pub attempt: u32,
    /// The writes the client computed.
    pub writes: WriteLog,
    /// Whether the tentative execution was a no-op.
    pub aborted_noop: bool,
}

/// Server → client messages.
#[derive(Clone, Debug, serde::Serialize)]
pub enum TsDown {
    /// Certification succeeded; the transaction is serialized at `pos`.
    Commit {
        /// The certified transaction.
        cause: ActionId,
        /// The attempt that won.
        attempt: u32,
        /// Serialization position.
        pos: QueuePos,
    },
    /// Certification failed; retry against the enclosed fresh values.
    Abort {
        /// The rejected transaction.
        cause: ActionId,
        /// The rejected attempt.
        attempt: u32,
        /// Fresh authoritative values of the stale objects.
        fresh: Snapshot,
        /// Their current versions.
        versions: Vec<(ObjectId, u64)>,
    },
    /// A committed transaction's writes, broadcast to every client.
    Update {
        /// Serialization position.
        pos: QueuePos,
        /// The committing transaction.
        cause: ActionId,
        /// Writes to apply.
        writes: WriteLog,
        /// New versions of the written objects.
        versions: Vec<(ObjectId, u64)>,
    },
}

/// The certifying server.
pub struct TimestampServer<W: GameWorld> {
    world: Arc<W>,
    cfg: TimestampConfig,
    state: WorldState,
    versions: HashMap<ObjectId, u64>,
    next_pos: QueuePos,
    metrics: ServerMetrics,
}

impl<W: GameWorld> ServerNode<W> for TimestampServer<W> {
    type Up = TsUp<W::Action>;
    type Down = TsDown;

    fn deliver(
        &mut self,
        _now: SimTime,
        from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64 {
        self.metrics.submissions += 1;
        // Backward certification: all read versions must be current.
        let stale: Vec<(ObjectId, u64)> = msg
            .read_versions
            .iter()
            .filter(|(o, v)| self.versions.get(o).copied().unwrap_or(0) != *v)
            .map(|&(o, _)| (o, self.versions.get(&o).copied().unwrap_or(0)))
            .collect();
        let cost = self.cfg.msg_cost_us;
        self.metrics.compute_us += cost;
        if stale.is_empty() {
            let pos = self.next_pos;
            self.next_pos += 1;
            if !msg.aborted_noop {
                self.state.apply_writes(&msg.writes);
            }
            let mut new_versions = Vec::new();
            for o in msg.writes.touched_objects().iter() {
                self.versions.insert(o, pos);
                new_versions.push((o, pos));
            }
            self.metrics.installed += 1;
            out.push((
                from,
                TsDown::Commit {
                    cause: msg.action.id(),
                    attempt: msg.attempt,
                    pos,
                },
            ));
            for i in 0..self.world.num_clients() {
                let c = ClientId(i as u16);
                if c != from {
                    out.push((
                        c,
                        TsDown::Update {
                            pos,
                            cause: msg.action.id(),
                            writes: msg.writes.clone(),
                            versions: new_versions.clone(),
                        },
                    ));
                }
            }
        } else {
            // Abort: ship fresh values so the retry can succeed.
            self.metrics.drops += 1; // aborts recorded in the drops counter
            let set = stale.iter().map(|&(o, _)| o).collect();
            out.push((
                from,
                TsDown::Abort {
                    cause: msg.action.id(),
                    attempt: msg.attempt,
                    fresh: self.state.snapshot_of(&set),
                    versions: stale,
                },
            ));
        }
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

/// The optimistic client.
pub struct TimestampClient<W: GameWorld> {
    id: ClientId,
    world: Arc<W>,
    cfg: TimestampConfig,
    state: WorldState,
    versions: HashMap<ObjectId, u64>,
    next_seq: u32,
    pending: HashMap<ActionId, W::Action>,
    submit_times: BTreeMap<u32, SimTime>,
    metrics: ClientMetrics,
}

impl<W: GameWorld> TimestampClient<W> {
    /// Tentatively execute `action` and build the certification request.
    fn execute_attempt(&mut self, action: &W::Action, attempt: u32) -> (TsUp<W::Action>, u64) {
        let outcome = action.evaluate(self.world.env(), &self.state);
        let read_versions = action
            .read_set()
            .iter()
            .map(|o| (o, self.versions.get(&o).copied().unwrap_or(0)))
            .collect();
        self.metrics.evaluations += 1;
        let cost = self.world.eval_cost_micros(action);
        self.metrics.compute_us += cost;
        (
            TsUp {
                action: action.clone(),
                read_versions,
                attempt,
                writes: outcome.writes,
                aborted_noop: outcome.aborted,
            },
            cost,
        )
    }
}

impl<W: GameWorld> ClientNode<W> for TimestampClient<W> {
    type Up = TsUp<W::Action>;
    type Down = TsDown;

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
        let (msg, cost) = self.execute_attempt(&action, 0);
        out.push(msg);
        cost
    }

    fn deliver(&mut self, now: SimTime, msg: Self::Down, out: &mut Vec<Self::Up>) -> u64 {
        match msg {
            TsDown::Commit { cause, .. } => {
                if let Some(action) = self.pending.remove(&cause) {
                    let _ = action;
                }
                if let Some(t) = self.submit_times.remove(&cause.seq) {
                    self.metrics.response_ms.record((now - t).as_ms_f64());
                }
                0
            }
            TsDown::Abort {
                cause,
                attempt,
                fresh,
                versions,
            } => {
                // Refresh the stale objects and retry.
                self.state.apply_snapshot(&fresh);
                for (o, v) in versions {
                    self.versions.insert(o, v);
                }
                if attempt + 1 > self.cfg.max_retries {
                    // Give up: count as dropped.
                    self.pending.remove(&cause);
                    self.submit_times.remove(&cause.seq);
                    self.metrics.dropped += 1;
                    return self.cfg.apply_cost_us;
                }
                let Some(action) = self.pending.get(&cause).cloned() else {
                    return 0;
                };
                let (retry, cost) = self.execute_attempt(&action, attempt + 1);
                out.push(retry);
                cost
            }
            TsDown::Update {
                cause,
                writes,
                versions,
                ..
            } => {
                self.metrics.batches += 1;
                debug_assert_ne!(cause.client, self.id);
                self.state.apply_writes(&writes);
                for (o, v) in versions {
                    self.versions.insert(o, v);
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
}

/// Suite for the optimistic timestamp-ordering baseline.
#[derive(Clone, Debug, Default)]
pub struct TimestampSuite {
    /// Tuning knobs.
    pub cfg: TimestampConfig,
}

impl<W: GameWorld> ProtocolSuite<W> for TimestampSuite {
    type Up = TsUp<W::Action>;
    type Down = TsDown;
    type Client = TimestampClient<W>;
    type Server = TimestampServer<W>;

    fn name(&self) -> &'static str {
        "Timestamp"
    }

    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>) {
        let clients = (0..world.num_clients())
            .map(|i| TimestampClient {
                id: ClientId(i as u16),
                world: Arc::clone(&world),
                cfg: self.cfg.clone(),
                state: world.initial_state(),
                versions: HashMap::new(),
                next_seq: 0,
                pending: HashMap::new(),
                submit_times: BTreeMap::new(),
                metrics: ClientMetrics::default(),
            })
            .collect();
        let server = TimestampServer {
            state: world.initial_state(),
            cfg: self.cfg.clone(),
            versions: HashMap::new(),
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
    use seve_world::worlds::dining::{DiningConfig, DiningWorld, HOLDER};

    fn setup(
        n: usize,
    ) -> (
        Arc<DiningWorld>,
        TimestampServer<DiningWorld>,
        Vec<TimestampClient<DiningWorld>>,
    ) {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: n,
            ..DiningConfig::default()
        }));
        let suite = TimestampSuite::default();
        let (s, c) =
            <TimestampSuite as ProtocolSuite<DiningWorld>>::build(&suite, Arc::clone(&world));
        (world, s, c)
    }

    #[test]
    fn fresh_transaction_commits_first_try() {
        let (world, mut server, mut clients) = setup(4);
        let mut up = Vec::new();
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(0), up.pop().unwrap(), &mut down);
        assert!(matches!(down[0], (c, TsDown::Commit { .. }) if c == ClientId(0)));
        // Everyone else gets the update.
        assert_eq!(down.len(), 4);
    }

    #[test]
    fn stale_read_aborts_and_retry_succeeds() {
        let (world, mut server, mut clients) = setup(4);
        let mut up0 = Vec::new();
        let mut up1 = Vec::new();
        // Both neighbours execute tentatively before hearing anything.
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up0);
        clients[1].submit(SimTime::ZERO, world.grab(ClientId(1), 0), &mut up1);
        let mut down = Vec::new();
        // 0 certifies first: commit.
        server.deliver(SimTime::ZERO, ClientId(0), up0.pop().unwrap(), &mut down);
        down.clear();
        // 1's read of shared fork 1 is now stale: abort with fresh values.
        server.deliver(SimTime::ZERO, ClientId(1), up1.pop().unwrap(), &mut down);
        let (c, abort) = down.pop().unwrap();
        assert_eq!(c, ClientId(1));
        assert!(matches!(abort, TsDown::Abort { .. }));
        // Client 1 retries with refreshed state: the grab now fails
        // cleanly (fork taken → no-op), and certification passes.
        let mut retry = Vec::new();
        clients[1].deliver(SimTime::from_ms(238), abort, &mut retry);
        assert_eq!(retry.len(), 1);
        let mut down2 = Vec::new();
        server.deliver(
            SimTime::from_ms(240),
            ClientId(1),
            retry.pop().unwrap(),
            &mut down2,
        );
        assert!(matches!(down2[0].1, TsDown::Commit { .. }));
        // The no-op retry wrote nothing: fork 1 still belongs to 0.
        assert_eq!(
            server
                .state
                .attr(seve_world::worlds::dining::fork(1, 4), HOLDER),
            Some(0i64.into())
        );
        assert_eq!(server.metrics().drops, 1, "one abort recorded");
    }

    #[test]
    fn max_retries_gives_up() {
        let cfg = TimestampConfig {
            max_retries: 0,
            ..TimestampConfig::default()
        };
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: 4,
            ..DiningConfig::default()
        }));
        let suite = TimestampSuite { cfg };
        let (mut server, mut clients) =
            <TimestampSuite as ProtocolSuite<DiningWorld>>::build(&suite, Arc::clone(&world));
        let mut up0 = Vec::new();
        let mut up1 = Vec::new();
        clients[0].submit(SimTime::ZERO, world.grab(ClientId(0), 0), &mut up0);
        clients[1].submit(SimTime::ZERO, world.grab(ClientId(1), 0), &mut up1);
        let mut down = Vec::new();
        server.deliver(SimTime::ZERO, ClientId(0), up0.pop().unwrap(), &mut down);
        down.clear();
        server.deliver(SimTime::ZERO, ClientId(1), up1.pop().unwrap(), &mut down);
        let (_, abort) = down.pop().unwrap();
        let mut retry = Vec::new();
        clients[1].deliver(SimTime::from_ms(238), abort, &mut retry);
        assert!(retry.is_empty(), "no retry budget");
        assert_eq!(clients[1].metrics().dropped, 1);
    }
}
