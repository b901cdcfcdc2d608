//! The threaded TCP client driver.
//!
//! Drives a [`SeveClient`] engine — the same one the simulator uses — over
//! a real socket. This module owns only the socket plumbing (connect +
//! hello handshake, a reader thread feeding a channel, the framed writer),
//! packaged as a [`TcpClientTransport`]; the move/drain/linger phases are
//! the driver layer's [`NodeDriver::run_client`], shared with the
//! in-process backend.
//!
//! The transport is reconnectable: [`ClientTransport::reconnect`] dials
//! the server again and re-presents the hello (with the session token), so
//! a [`SupervisedClientTransport`] stacked on top can heal a lost link and
//! resume the session mid-run.

use crate::frame::{encode_frame_into, write_msg, FrameError, FrameReader};
use crate::server::{RtDown, RtUp};
use crate::wire::BufferPool;
use crossbeam::channel::{self, Receiver, RecvTimeoutError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use seve_core::client::SeveClient;
use seve_core::config::ProtocolConfig;
use seve_core::msg::{ToClient, ToServer};
use seve_driver::{
    session_token, ClientEvent, ClientTransport, FaultPlan, FaultyClientTransport, NodeDriver,
    SessionDown, SessionParams, SessionUp, SupervisedClientTransport,
};
use seve_world::ids::ClientId;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::io;
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use seve_driver::ClientReport;

/// A client's side of a framed-TCP session: the writer socket plus the
/// channel the reader thread feeds. Implements [`ClientTransport`] so
/// [`NodeDriver::run_client`] can drive any engine over it. `writer` is
/// `None` while the link is down (after a partition or a lost server);
/// [`ClientTransport::reconnect`] dials again and re-seats the session.
pub struct TcpClientTransport<U, D> {
    addr: SocketAddr,
    id: ClientId,
    world_digest: u64,
    token: u64,
    writer: Option<TcpStream>,
    rx: Receiver<RtDown<D>>,
    /// Recycled encode buffer for the submit path: after the first send,
    /// framing a message allocates nothing.
    pool: BufferPool,
    /// Reader threads, one per connection made; stale ones exit when
    /// their socket is shut down.
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Handshake frames are sent outside the driven session; the runner
    /// folds them into the report's wire total afterwards.
    hello_bytes: Arc<AtomicU64>,
    _up: PhantomData<U>,
}

impl<U, D> TcpClientTransport<U, D>
where
    U: Serialize,
    D: DeserializeOwned + Send + 'static,
{
    /// Dial `addr`, present the hello for `id`, and spawn the reader.
    pub fn connect(
        addr: SocketAddr,
        id: ClientId,
        world_digest: u64,
        token: u64,
    ) -> Result<Self, FrameError> {
        // Start from a disconnected channel; `reconnect` installs the
        // live one.
        let (_tx, rx) = channel::unbounded::<RtDown<D>>();
        let mut t = Self {
            addr,
            id,
            world_digest,
            token,
            writer: None,
            rx,
            pool: BufferPool::new(),
            readers: Vec::new(),
            hello_bytes: Arc::new(AtomicU64::new(0)),
            _up: PhantomData,
        };
        t.reconnect()?;
        Ok(t)
    }

    /// Total bytes spent on hello handshakes so far (shared handle; stays
    /// readable after the transport is consumed by a wrapper stack).
    pub fn handshake_bytes(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.hello_bytes)
    }
}

impl<U, D> Drop for TcpClientTransport<U, D> {
    fn drop(&mut self) {
        // Shutting the socket (not just dropping our writer clone) wakes
        // the reader thread, so joining below cannot hang.
        if let Some(s) = self.writer.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<U, D> ClientTransport<U, D> for TcpClientTransport<U, D>
where
    U: Serialize,
    D: DeserializeOwned + Send + 'static,
{
    type Error = FrameError;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, FrameError> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(RtDown::Msg(m)) => ClientEvent::Msg(m),
            Ok(RtDown::Stop) => ClientEvent::Stop,
            Err(RecvTimeoutError::Timeout) => ClientEvent::Timeout,
            Err(RecvTimeoutError::Disconnected) => ClientEvent::Closed,
        })
    }

    fn send(&mut self, msg: U) -> Result<u64, FrameError> {
        use std::io::Write;
        let Some(writer) = self.writer.as_mut() else {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "link down",
            )));
        };
        let mut frame = self.pool.take();
        let r = encode_frame_into(&RtUp::Msg(msg), &mut frame);
        let len = frame.len() as u64;
        let r = r.and_then(|()| {
            writer.write_all(&frame)?;
            writer.flush()?;
            Ok(())
        });
        self.pool.put(frame);
        r.map(|()| len)
    }

    fn finish(&mut self) -> Result<u64, FrameError> {
        match self.writer.as_mut() {
            Some(w) => Ok(write_msg(w, &RtUp::<U>::Bye)? as u64),
            None => Ok(0),
        }
    }

    fn reconnect(&mut self) -> Result<bool, FrameError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let hello = write_msg(
            &mut writer,
            &RtUp::<U>::Hello {
                client: self.id.0,
                world_digest: self.world_digest,
                token: self.token,
            },
        )? as u64;
        self.hello_bytes.fetch_add(hello, Ordering::Relaxed);

        // Reader thread: frames → channel.
        let (tx, rx) = channel::unbounded::<RtDown<D>>();
        let mut reader = FrameReader::new(stream);
        self.readers.push(std::thread::spawn(move || {
            while let Ok(m) = reader.read_msg::<RtDown<D>>() {
                let stop = matches!(m, RtDown::Stop);
                if tx.send(m).is_err() || stop {
                    break;
                }
            }
        }));

        // Retire any previous socket only once the new one is seated; its
        // reader exits on the shutdown.
        if let Some(old) = self.writer.replace(writer) {
            let _ = old.shutdown(Shutdown::Both);
        }
        self.rx = rx;
        Ok(true)
    }

    fn partition(&mut self, _d: Duration) -> Result<(), FrameError> {
        // A real outage: kill the socket. The server's reader observes the
        // loss; the supervised wrapper above models the dark window and
        // schedules the heal.
        if let Some(s) = self.writer.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        Ok(())
    }
}

/// Connect to `addr` as `id`, submit `moves` workload actions at `period`,
/// drain, and return the observations. Runs a supervised session with
/// [`SessionParams::default`] and no injected faults; see
/// [`run_client_with`].
pub fn run_client<W>(
    world: Arc<W>,
    cfg: &ProtocolConfig,
    addr: SocketAddr,
    id: ClientId,
    workload: &mut dyn Workload<W>,
    moves: u32,
    period: Duration,
) -> Result<ClientReport, FrameError>
where
    W: GameWorld,
    W::Action: Serialize + DeserializeOwned,
{
    run_client_with(
        world,
        cfg,
        addr,
        id,
        workload,
        moves,
        period,
        &FaultPlan::none(),
        SessionParams::default(),
    )
}

/// [`run_client`] with explicit fault injection and [`SessionParams`].
///
/// The transport stack is `Supervised{Faulty{Tcp}}`: sequence-numbered
/// envelopes, resequencing, acks, and reconnect-with-backoff after a
/// partition. The client's entries in `faults` — crash schedule, partition
/// window, lane policies — are applied here.
#[allow(clippy::too_many_arguments)]
pub fn run_client_with<W>(
    world: Arc<W>,
    cfg: &ProtocolConfig,
    addr: SocketAddr,
    id: ClientId,
    workload: &mut dyn Workload<W>,
    moves: u32,
    period: Duration,
    faults: &FaultPlan,
    session: SessionParams,
) -> Result<ClientReport, FrameError>
where
    W: GameWorld,
    W::Action: Serialize + DeserializeOwned,
{
    let world_digest = world.initial_state().digest();
    let engine: SeveClient<W> = SeveClient::new(id, world, cfg);
    let mut driver = NodeDriver::client(moves, period);
    driver.crash_after_moves = faults.crash_for(id);
    driver.partition_after_moves = faults
        .partition_for(id)
        .map(|p| (p.after_submissions, p.duration));

    type Up<W> = SessionUp<ToServer<<W as GameWorld>::Action>>;
    type Down<W> = SessionDown<ToClient<<W as GameWorld>::Action>>;
    let token = session_token(session.seed, id);
    let inner: TcpClientTransport<Up<W>, Down<W>> =
        TcpClientTransport::connect(addr, id, world_digest, token)?;
    let hello = inner.handshake_bytes();
    let faulty = FaultyClientTransport::new(inner, faults, id.index());
    let mut transport = SupervisedClientTransport::new(faulty, id, session);
    let mut report = driver.run_client(engine, workload, &mut transport)?;
    report.bytes_out += hello.load(Ordering::Relaxed);
    Ok(report)
}
