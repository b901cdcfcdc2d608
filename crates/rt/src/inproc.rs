//! The in-process backend: each node on its own thread, each connection a
//! [`crate::pipe::Pipe`], the server in the body of [`crate::run_server_with`]
//! and each client in that of [`crate::run_client_with`].

use crate::client::drive_client;
use crate::frame::FrameError;
use crate::pipe::Pipe;
use crate::server::serve;
use serde::de::DeserializeOwned;
use seve_core::engine::{ProtocolSuite, ServerNode, ShareKey};
use seve_driver::{FaultPlan, NodeDriver, SessionParams, SessionReport};
use seve_world::ids::ClientId;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::sync::{mpsc, Arc};
use std::thread::{self, ScopedJoinHandle};
use std::time::Duration;

/// Cadence and fault parameters for one in-process session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Server simulation tick τ.
    pub tick: Duration,
    /// Client move-generation period.
    pub move_period: Duration,
    /// Actions submitted per client.
    pub moves: u32,
    /// Each client's [`NodeDriver::drain_grace`].
    pub drain_grace: Duration,
    /// Up-lane faults, crashes and partitions, applied to every client.
    pub faults: FaultPlan,
    /// Session-supervision parameters.
    pub session: SessionParams,
}

impl SessionConfig {
    /// A config scaled for tests, with [`SessionParams::fast`] supervision.
    pub fn fast(moves: u32, move_period: Duration, tick: Duration) -> Self {
        Self {
            tick,
            move_period,
            moves,
            drain_grace: NodeDriver::default().drain_grace,
            faults: FaultPlan::none(),
            session: SessionParams::fast(),
        }
    }
}

/// Run one in-process session, faulted per `cfg.faults`, and return every
/// node's report. The engines come from `suite.build`, so none prices
/// compute; `make_workload` builds each client's, in id order.
pub fn run_inproc_session<W, P>(
    world: Arc<W>,
    suite: &P,
    cfg: &SessionConfig,
    mut make_workload: impl FnMut(ClientId) -> Box<dyn Workload<W>>,
) -> SessionReport
where
    W: GameWorld,
    P: ProtocolSuite<W>,
    P::Up: DeserializeOwned + 'static,
    P::Down: DeserializeOwned + ShareKey + Sync,
{
    let n = world.num_clients();
    let digest = world.initial_state().digest();
    let (server, clients) = suite.build(Arc::clone(&world));
    assert_eq!(clients.len(), n);
    // ω·RTT from the protocol config, read as wall microseconds, as on TCP.
    let (tick, session, period) = (cfg.tick, cfg.session, server.push_period());
    let push = period.map_or(tick, |p| Duration::from_micros(p.as_micros()));
    let workloads: Vec<_> = (0..n).map(|i| make_workload(ClientId(i as u16))).collect();
    let (dialer, listener) = mpsc::channel::<Pipe>();
    let host = move || serve::<W, _, Pipe>(server, listener, n, tick, push, digest, session);
    let client = |engine, dial, wl: &mut dyn Workload<W>, driver| {
        drive_client::<W, _, Pipe>(engine, dial, digest, wl, driver, &cfg.faults, session)
    };
    thread::scope(|s| {
        let server = s.spawn(host);
        let clients: Vec<_> = (clients.into_iter().zip(workloads))
            .map(|(engine, mut wl)| {
                let mut driver = NodeDriver::client(cfg.moves, cfg.move_period);
                driver.drain_grace = cfg.drain_grace;
                let (dial, client) = (dialer.clone(), &client);
                s.spawn(move || client(engine, dial, wl.as_mut(), driver))
            })
            .collect();
        SessionReport {
            clients: clients.into_iter().map(finish).collect(),
            server: finish(server),
        }
    })
}

/// Join a node's thread: a node that panicked or failed fails the session.
fn finish<T>(node: ScopedJoinHandle<'_, Result<T, FrameError>>) -> T {
    node.join().expect("node panicked").expect("node failed")
}
