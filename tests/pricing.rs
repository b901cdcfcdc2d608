//! Only the simulator prices compute.
//!
//! An engine's compute receipts stand in for the paper's simulated
//! machines, so the discrete-event simulator installs its cost model on
//! every engine it builds, and nothing else does. Engines built any other
//! way charge 0 and never ask the world what an evaluation costs — on
//! Manhattan that question is a visible-wall query, as dear as the
//! evaluation itself. The world below counts how often it is asked.

use seve::baselines::CentralSuite;
use seve::core::config::{ProtocolConfig, ServerMode};
use seve::core::engine::ProtocolSuite;
use seve::core::msg::{Item, ToClient, ToServer};
use seve::core::server::SeveSuite;
use seve::driver::{
    run_inproc_session, ClientEvent, ClientTransport, NodeDriver, SessionConfig, SimConfig,
    Simulation,
};
use seve::world::geometry::Vec2;
use seve::world::ids::{ClientId, ObjectId};
use seve::world::semantics::Semantics;
use seve::world::state::WorldState;
use seve::world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, MoveAction, SpawnPattern,
};
use seve::world::worlds::Workload;
use seve::world::GameWorld;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const MOVES: u32 = 20;

/// A Manhattan world that counts the calls to its cost query.
struct Counting {
    inner: ManhattanWorld,
    priced: AtomicU64,
}

impl Counting {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: ManhattanWorld::new(ManhattanConfig {
                width: 200.0,
                height: 200.0,
                walls: 100,
                clients: CLIENTS,
                spawn: SpawnPattern::Grid { spacing: 8.0 },
                seed: 77,
                ..ManhattanConfig::default()
            }),
            priced: AtomicU64::new(0),
        })
    }

    fn priced(&self) -> u64 {
        self.priced.load(Ordering::Relaxed)
    }
}

impl GameWorld for Counting {
    type Env = <ManhattanWorld as GameWorld>::Env;
    type Action = MoveAction;

    fn env(&self) -> &Arc<Self::Env> {
        self.inner.env()
    }

    fn initial_state(&self) -> WorldState {
        self.inner.initial_state()
    }

    fn semantics(&self) -> Semantics {
        self.inner.semantics()
    }

    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }

    fn avatar_object(&self, client: ClientId) -> ObjectId {
        self.inner.avatar_object(client)
    }

    fn position_in(&self, state: &WorldState, object: ObjectId) -> Option<Vec2> {
        self.inner.position_in(state, object)
    }

    fn eval_cost_micros(&self, action: &MoveAction) -> u64 {
        self.priced.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_cost_micros(action)
    }
}

/// The Manhattan workload, over the counting world.
struct Moves(ManhattanWorkload);

/// A fresh Manhattan workload over `world`.
fn moves(world: &Counting) -> Box<dyn Workload<Counting>> {
    Box::new(Moves(ManhattanWorkload::new(&world.inner)))
}

impl Workload<Counting> for Moves {
    fn next_action(
        &mut self,
        client: ClientId,
        seq: u32,
        view: &WorldState,
        now_ms: u64,
    ) -> Option<MoveAction> {
        self.0.next_action(client, seq, view, now_ms)
    }
}

fn suite() -> SeveSuite {
    SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound))
}

#[test]
fn the_simulator_prices_each_evaluation_once() {
    let world = Counting::new();
    let sim = SimConfig {
        moves_per_client: MOVES,
        ..SimConfig::default()
    };
    let r = Simulation::new(Arc::clone(&world), &suite(), sim).run(moves(&world).as_mut());
    assert_eq!(r.submitted, CLIENTS as u64 * u64::from(MOVES));
    assert_eq!(r.violations, 0);
    // A SEVE server evaluates nothing: every evaluation is a replica's.
    assert!(r.evaluations > r.submitted);
    assert_eq!(world.priced(), r.evaluations, "one price per evaluation");
    // The charges of this run as recorded when every engine still priced
    // its own work: moving the price into the simulator changed none.
    assert_eq!(r.client_compute_us, 218_072);
    assert_eq!(r.server_compute_us, 5_981);

    // A Central server evaluates every action, and its thin clients none.
    let world = Counting::new();
    let sim = SimConfig {
        moves_per_client: MOVES,
        ..SimConfig::default()
    };
    let r = Simulation::new(Arc::clone(&world), &CentralSuite::default(), sim)
        .run(moves(&world).as_mut());
    assert_eq!(r.evaluations, 0);
    assert_eq!(world.priced(), r.server.submissions);
    assert_eq!(r.server.submissions, r.submitted);
}

#[test]
fn threaded_engines_never_price() {
    let world = Counting::new();
    let session = SessionConfig::fast(MOVES, Duration::from_millis(10), Duration::from_millis(5));
    let report = run_inproc_session(Arc::clone(&world), &suite(), &session, |_| moves(&world));
    assert_eq!(report.submitted(), CLIENTS as u64 * u64::from(MOVES));
    assert!(report.clients.iter().all(|c| c.metrics.evaluations > 0));
    assert_eq!(world.priced(), 0, "the cost query ran");
    assert_eq!(report.server.metrics.compute_us, 0);
    for c in &report.clients {
        assert_eq!(c.metrics.compute_us, 0);
    }
}

/// A one-client server in a script: it serializes each submission at the
/// next position and returns it at once, and stops the client once it has
/// said goodbye.
struct Echo {
    inbox: VecDeque<ToClient<MoveAction>>,
    next_pos: u64,
    finished: bool,
}

impl ClientTransport<ToServer<MoveAction>, ToClient<MoveAction>> for Echo {
    type Error = Infallible;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<ToClient<MoveAction>>, Infallible> {
        Ok(match self.inbox.pop_front() {
            Some(msg) => ClientEvent::Msg(msg),
            None if self.finished => ClientEvent::Stop,
            None => {
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
                ClientEvent::Timeout
            }
        })
    }

    fn send(&mut self, msg: ToServer<MoveAction>) -> Result<u64, Infallible> {
        if let ToServer::Submit { action } = msg {
            self.next_pos += 1;
            self.inbox.push_back(ToClient::Batch {
                items: vec![Item::action(self.next_pos, action)].into(),
            });
        }
        Ok(0)
    }

    fn finish(&mut self) -> Result<u64, Infallible> {
        self.finished = true;
        Ok(0)
    }
}

#[test]
fn a_driven_client_never_prices() {
    let world = Counting::new();
    let (_server, clients) = suite().build(Arc::clone(&world));
    let client = clients.into_iter().next().expect("four clients");
    let mut transport = Echo {
        inbox: VecDeque::new(),
        next_pos: 0,
        finished: false,
    };
    let report = NodeDriver::client(MOVES, Duration::from_millis(1))
        .run_client(client, moves(&world).as_mut(), &mut transport)
        .expect("the script never fails");
    assert_eq!(report.metrics.submitted, u64::from(MOVES));
    assert_eq!(report.metrics.response_ms.count(), MOVES as usize);
    assert!(report.metrics.evaluations >= 2 * u64::from(MOVES));
    assert_eq!(world.priced(), 0, "the cost query ran");
    assert_eq!(report.metrics.compute_us, 0);
}
