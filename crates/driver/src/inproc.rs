//! The in-process backend: one OS thread per node, channels instead of
//! sockets.
//!
//! This is the third substrate under the [`crate::node::NodeDriver`] loops:
//! real concurrency and real wall-clock timing like the TCP runtime, but no
//! listener and no ports — sessions run entirely inside one process, and
//! messages cross as values. That makes it the fastest way to exercise the
//! *threaded* drive loops (and the fault decorator) in ordinary tests,
//! where spinning up sockets per case would be slow and flaky.
//!
//! Wiring: one shared MPSC up-channel into the server, one down-channel per
//! client. A client that finishes (or whose transport is dropped after a
//! crash) signals `Done`, mirroring the TCP runtime's goodbye frame /
//! broken-socket detection. Each envelope the transport carries is charged
//! the bytes the codec would write for it ([`encoded_len`]), as the TCP
//! runtime's frames are, so transfer totals are comparable across the
//! backends.

use crate::fault::{FaultPlan, FaultyClientTransport};
use crate::node::NodeDriver;
use crate::report::{ClientReport, ServerReport, SessionReport};
use crate::session::{
    SessionDown, SessionParams, SessionUp, SupervisedClientTransport, SupervisedServerTransport,
};
use crate::transport::{ClientEvent, ClientTransport, ServerEvent, ServerTransport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use serde::Serialize;
use seve_core::engine::{ProtocolSuite, ServerNode};
use seve_net::wire::encoded_len;
use seve_world::ids::ClientId;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

/// Client → server channel items.
enum InUp<U> {
    /// A protocol message from the given client.
    Msg(ClientId, U),
    /// The client finished with an orderly goodbye.
    Done(ClientId),
    /// The client's transport was dropped without a goodbye — the channel
    /// analogue of a broken socket.
    Gone(ClientId),
}

/// Server → client channel items.
enum InDown<D> {
    /// A protocol message.
    Msg(D),
    /// End of session.
    Stop,
}

/// The server's side of an in-process session: one merged inbound channel,
/// one outbound channel per client seat.
pub struct InprocServerTransport<U, D> {
    rx: Receiver<InUp<U>>,
    // `None` once the lane is released (reaped): the channel analogue of a
    // closed socket — later sends to that seat are silently lost.
    txs: Vec<Option<Sender<InDown<D>>>>,
}

/// One client's side of an in-process session.
pub struct InprocClientTransport<U, D> {
    id: ClientId,
    tx: Sender<InUp<U>>,
    rx: Receiver<InDown<D>>,
    finished: bool,
}

/// Build the channel fabric for an `n`-client in-process session: the
/// server transport plus one client transport per seat, in id order.
pub fn wire<U, D>(
    n: usize,
) -> (
    InprocServerTransport<U, D>,
    Vec<InprocClientTransport<U, D>>,
) {
    let (tx_up, rx_up) = unbounded();
    let mut txs = Vec::with_capacity(n);
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let (tx_down, rx_down) = unbounded();
        txs.push(Some(tx_down));
        clients.push(InprocClientTransport {
            id: ClientId(i as u16),
            tx: tx_up.clone(),
            rx: rx_down,
            finished: false,
        });
    }
    (InprocServerTransport { rx: rx_up, txs }, clients)
}

impl<U, D: Serialize + Clone> ServerTransport<U, D> for InprocServerTransport<U, D> {
    type Error = Infallible;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, Infallible> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(InUp::Msg(from, msg)) => ServerEvent::Msg(from, msg),
            Ok(InUp::Done(c)) => ServerEvent::Done(c),
            Ok(InUp::Gone(c)) => ServerEvent::Gone(c),
            Err(RecvTimeoutError::Timeout) => ServerEvent::Timeout,
            Err(RecvTimeoutError::Disconnected) => ServerEvent::Closed,
        })
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, Infallible> {
        let mut bytes = 0u64;
        for (dest, m) in out {
            let sz = encoded_len(m) as u64;
            // A send to a departed or released client is the channel
            // analogue of writing to a closed socket: silently lost.
            if let Some(tx) = &self.txs[dest.index()] {
                if tx.send(InDown::Msg(m.clone())).is_ok() {
                    bytes += sz;
                }
            }
        }
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), Infallible> {
        for tx in self.txs.iter().flatten() {
            let _ = tx.send(InDown::Stop);
        }
        Ok(())
    }

    fn release(&mut self, c: ClientId) -> Result<(), Infallible> {
        // Dropping the sender closes the lane: the client (if still alive)
        // observes `Closed`, and no further traffic can queue for it.
        self.txs[c.index()] = None;
        Ok(())
    }
}

impl<U: Serialize, D> ClientTransport<U, D> for InprocClientTransport<U, D> {
    type Error = Infallible;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, Infallible> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(InDown::Msg(m)) => ClientEvent::Msg(m),
            Ok(InDown::Stop) => ClientEvent::Stop,
            Err(RecvTimeoutError::Timeout) => ClientEvent::Timeout,
            Err(RecvTimeoutError::Disconnected) => ClientEvent::Closed,
        })
    }

    fn send(&mut self, msg: U) -> Result<u64, Infallible> {
        let bytes = encoded_len(&msg) as u64;
        Ok(if self.tx.send(InUp::Msg(self.id, msg)).is_ok() {
            bytes
        } else {
            0
        })
    }

    fn finish(&mut self) -> Result<u64, Infallible> {
        self.finished = true;
        let _ = self.tx.send(InUp::Done(self.id));
        Ok(0)
    }
}

impl<U, D> Drop for InprocClientTransport<U, D> {
    /// A transport dropped without an orderly [`ClientTransport::finish`]
    /// is a crashed client: signal the loss so the server's seat count
    /// still converges — exactly what the TCP server reports when a
    /// client's socket breaks.
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.tx.send(InUp::Gone(self.id));
        }
    }
}

/// Cadence and fault parameters for one in-process session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Server simulation tick τ.
    pub tick: Duration,
    /// Client move-generation period.
    pub move_period: Duration,
    /// Actions submitted per client.
    pub moves: u32,
    /// Extra drain time beyond ten move periods (see
    /// [`NodeDriver::drain_grace`]).
    pub drain_grace: Duration,
    /// Post-goodbye linger (see [`NodeDriver::linger`]).
    pub linger: Duration,
    /// Fault injection applied to every client transport, plus scheduled
    /// crashes and partitions.
    pub faults: FaultPlan,
    /// Session-supervision parameters.
    pub session: SessionParams,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(50),
            move_period: Duration::from_millis(300),
            moves: 100,
            drain_grace: Duration::from_secs(2),
            linger: Duration::from_secs(10),
            faults: FaultPlan::none(),
            session: SessionParams::default(),
        }
    }
}

impl SessionConfig {
    /// A config scaled for tests: short periods, few moves, a fast
    /// supervision envelope (short RTO and liveness deadlines).
    pub fn fast(moves: u32, move_period: Duration, tick: Duration) -> Self {
        Self {
            tick,
            move_period,
            moves,
            session: SessionParams::fast(),
            ..Self::default()
        }
    }
}

/// Run one complete in-process session: the server plus one thread per
/// client, all driven by the shared [`NodeDriver`] loops, faulted per
/// `cfg.faults`. `make_workload` builds each client's workload (called in
/// client-id order, on the calling thread). Returns every node's report, in
/// client-id order.
pub fn run_inproc_session<W, P>(
    world: Arc<W>,
    suite: &P,
    cfg: &SessionConfig,
    mut make_workload: impl FnMut(ClientId) -> Box<dyn Workload<W>>,
) -> SessionReport
where
    W: GameWorld,
    P: ProtocolSuite<W>,
{
    let n = world.num_clients();
    let (server_engine, client_engines) = suite.build(Arc::clone(&world));
    assert_eq!(client_engines.len(), n);
    // The push cadence comes from the protocol config (ω·RTT), read as wall
    // microseconds — the same interpretation the TCP runtime uses.
    let push = server_engine
        .push_period()
        .map(|p| Duration::from_micros(p.as_micros()))
        .unwrap_or(cfg.tick);
    let workloads: Vec<Box<dyn Workload<W>>> =
        (0..n).map(|i| make_workload(ClientId(i as u16))).collect();

    // The channels carry session envelopes, the fault decorator perturbs
    // them (the "network" below supervision), and the supervisors recover
    // on top.
    let (server_t, client_ts) = wire::<SessionUp<P::Up>, SessionDown<P::Down>>(n);
    let mut server_transport = SupervisedServerTransport::new(server_t, n, cfg.session);
    let client_transports: Vec<_> = client_ts
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            SupervisedClientTransport::new(
                FaultyClientTransport::new(t, &cfg.faults, i),
                ClientId(i as u16),
                cfg.session,
            )
        })
        .collect();
    let server_driver = NodeDriver::server(cfg.tick, push);
    let plan = &cfg.faults;

    crossbeam::thread::scope(|s| {
        let server = s.spawn(|_| {
            server_driver
                .run_server(server_engine, &mut server_transport, n)
                .expect("in-process transport is infallible")
        });
        let clients: Vec<_> = client_engines
            .into_iter()
            .zip(client_transports)
            .zip(workloads)
            .enumerate()
            .map(|(i, ((engine, mut transport), mut wl))| {
                let id = ClientId(i as u16);
                let mut driver = NodeDriver::client(cfg.moves, cfg.move_period);
                driver.drain_grace = cfg.drain_grace;
                driver.linger = cfg.linger;
                driver.crash_after_moves = plan.crash_for(id);
                driver.partition_after_moves = plan
                    .partition_for(id)
                    .map(|p| (p.after_submissions, p.duration));
                s.spawn(move |_| {
                    driver
                        .run_client(engine, wl.as_mut(), &mut transport)
                        .expect("in-process transport is infallible")
                })
            })
            .collect();
        let clients: Vec<ClientReport> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let server: ServerReport = server.join().expect("server thread panicked");
        SessionReport { server, clients }
    })
    .expect("session scope panicked")
}
