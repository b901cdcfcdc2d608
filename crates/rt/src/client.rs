//! The client driver.
//!
//! Drives a [`SeveClient`] engine — the same one the simulator uses — over
//! a real socket or an in-memory pipe. This module owns only the stream
//! plumbing (dial + hello handshake, then one nonblocking [`Lane`] that the
//! calling thread flushes and reads), packaged as a
//! [`StreamClientTransport`]; the move/drain/linger phases are the driver
//! layer's [`NodeDriver::run_client`].
//!
//! The transport is reconnectable: [`ClientTransport::reconnect`] dials
//! the server again and re-presents the hello (with the session token), so
//! a [`SupervisedClientTransport`] stacked on top can heal a lost link and
//! resume the session mid-run. That is the only recovery the supervisor
//! needs here: a connection neither loses, duplicates nor reorders a frame
//! while it lives, and what it loses when it dies — the unacked tail — the
//! server resends after the resume.

use crate::frame::{write_msg, FrameError};
use crate::lane::{encode, wait, Lane, Stream};
use crate::server::{RtDown, RtUp};
use crate::wire::{self, BufferPool};
use serde::de::DeserializeOwned;
use serde::Serialize;
use seve_core::client::SeveClient;
use seve_core::config::ProtocolConfig;
use seve_core::engine::ClientNode;
use seve_driver::{
    session_token, ClientEvent, ClientTransport, FaultPlan, FaultyClientTransport, NodeDriver,
    SessionParams, SupervisedClientTransport,
};
use seve_world::ids::ClientId;
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use seve_driver::ClientReport;

/// A client's side of a framed session over TCP or a pipe, driven from the
/// calling thread.
///
/// `recv` returns queued events first. With none queued it flushes the
/// lane and reads it until the stream would block, queueing whole frames,
/// and naps at most `IDLE_NAP` before it tries again. `send` and
/// `finish` queue a frame and flush; only `partition`, `reconnect` and the
/// drop wait on the server.
pub struct StreamClientTransport<U, D, S: Stream = TcpStream> {
    addr: S::Addr,
    id: ClientId,
    world_digest: u64,
    token: u64,
    /// `None` while the link is down (after a partition or a lost
    /// server); [`ClientTransport::reconnect`] dials again.
    lane: Option<Lane<S>>,
    events: VecDeque<ClientEvent<D>>,
    /// Recycled encode buffers: after warm-up, framing a message allocates
    /// nothing.
    pool: BufferPool,
    /// Handshake frames are sent outside the driven session; the runner
    /// folds them into the report's wire total afterwards.
    hello_bytes: Arc<AtomicU64>,
    _up: PhantomData<U>,
}

/// Frame `msg` into a buffer from `pool`, queue it on `lane` and flush.
/// Returns the frame's size.
fn queue<S: Read + Write, U: Serialize>(
    lane: &mut Lane<S>,
    msg: &RtUp<U>,
    pool: &mut BufferPool,
) -> Result<u64, FrameError> {
    let frame = encode(msg, pool)?;
    let len = frame.len() as u64;
    lane.push(frame);
    lane.flush(pool);
    Ok(len)
}

/// Flush the lane in `slot` and read it, queueing each whole frame as an
/// event. A lane that breaks — end of stream, an I/O error, an oversize
/// prefix or an undecodable payload — is retired and reported
/// [`ClientEvent::Closed`], after the frames before the break. A link that
/// is down reports `Closed` on every pass, as a closed channel would.
fn pump<S: Read + Write, D: DeserializeOwned>(
    slot: &mut Option<Lane<S>>,
    events: &mut VecDeque<ClientEvent<D>>,
    pool: &mut BufferPool,
) {
    let Some(lane) = slot else {
        events.push_back(ClientEvent::Closed);
        return;
    };
    lane.flush(pool);
    lane.read(|payload| {
        let event = match wire::from_bytes::<RtDown<D>>(payload) {
            Ok(RtDown::Msg(m)) => ClientEvent::Msg(m),
            Ok(RtDown::Stop) => ClientEvent::Stop,
            Err(_) => return false,
        };
        events.push_back(event);
        true
    });
    if lane.is_broken() {
        slot.take().expect("a broken lane").retire(pool);
        events.push_back(ClientEvent::Closed);
    }
}

impl<U: Serialize, D: DeserializeOwned, S: Stream> StreamClientTransport<U, D, S> {
    /// Dial `addr` and present the hello for `id`.
    pub fn connect(
        addr: S::Addr,
        id: ClientId,
        world_digest: u64,
        token: u64,
    ) -> Result<Self, FrameError> {
        let mut t = Self {
            addr,
            id,
            world_digest,
            token,
            lane: None,
            events: VecDeque::new(),
            pool: BufferPool::new(),
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

impl<U, D, S: Stream> StreamClientTransport<U, D, S> {
    /// Take the link down. What `send` and `finish` queued is written
    /// first, blocking as a socket's `write_all` would: an up-lane frame
    /// has no resend, so one left in the tail would be a lost submission.
    fn close(&mut self) {
        if let Some(mut lane) = self.lane.take() {
            if lane.stream().set_nonblocking(false).is_ok() {
                lane.flush(&mut self.pool);
            }
            lane.retire(&mut self.pool);
        }
    }
}

impl<U, D, S: Stream> Drop for StreamClientTransport<U, D, S> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<U: Serialize, D: DeserializeOwned, S: Stream> ClientTransport<U, D>
    for StreamClientTransport<U, D, S>
{
    type Error = FrameError;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, FrameError> {
        let event = wait(timeout, || {
            if self.events.is_empty() {
                pump(&mut self.lane, &mut self.events, &mut self.pool);
            }
            self.events.pop_front()
        });
        Ok(event.unwrap_or(ClientEvent::Timeout))
    }

    fn send(&mut self, msg: U) -> Result<u64, FrameError> {
        let lane = self.lane.as_mut().ok_or(FrameError::Closed)?;
        queue(lane, &RtUp::Msg(msg), &mut self.pool)
    }

    fn finish(&mut self) -> Result<u64, FrameError> {
        match self.lane.as_mut() {
            Some(lane) => queue(lane, &RtUp::<U>::Bye, &mut self.pool),
            None => Ok(0),
        }
    }

    fn reconnect(&mut self) -> Result<bool, FrameError> {
        let mut stream = S::dial(&self.addr)?;
        let hello = write_msg(
            &mut stream,
            &RtUp::<U>::Hello {
                client: self.id.0,
                world_digest: self.world_digest,
                token: self.token,
            },
        )? as u64;
        self.hello_bytes.fetch_add(hello, Ordering::Relaxed);
        let lane = Lane::new(stream)?;
        // Retire the previous link only once the new one is up; what it
        // had delivered and not yet been asked for is stale.
        self.close();
        self.events.clear();
        self.lane = Some(lane);
        Ok(true)
    }

    fn partition(&mut self, _d: Duration) -> Result<(), FrameError> {
        // A real outage: close the stream. The server observes the loss;
        // the supervised wrapper above models the dark window and
        // schedules the heal.
        self.close();
        Ok(())
    }
}

/// Connect to `addr` as `id`, submit `moves` workload actions at `period`,
/// drain, and return the observations.
///
/// The transport stack is `Faulty{Supervised{Stream}}`: sequence-numbered
/// envelopes delivered strictly in order, delayed cumulative acks, and
/// reconnect-with-backoff and resume after a partition, under `session`
/// ([`SessionParams::default`] for a plain run), with the fault decorator
/// perturbing what the engine submits on top. The client's entries in
/// `faults` — crash schedule, partition window, up-lane policy — are
/// applied here; [`FaultPlan::none`] injects none.
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
    let digest = world.initial_state().digest();
    let engine: SeveClient<W> = SeveClient::new(id, world, cfg);
    let driver = NodeDriver::client(moves, period);
    drive_client::<W, _, TcpStream>(engine, addr, digest, workload, driver, faults, session)
}

/// [`run_client_with`] for any engine, on any [`Stream`].
pub(crate) fn drive_client<W, C, S>(
    engine: C,
    addr: S::Addr,
    world_digest: u64,
    workload: &mut dyn Workload<W>,
    mut driver: NodeDriver,
    faults: &FaultPlan,
    session: SessionParams,
) -> Result<ClientReport, FrameError>
where
    W: GameWorld,
    C: ClientNode<W>,
    C::Up: Serialize,
    C::Down: DeserializeOwned,
    S: Stream,
{
    let id = engine.id();
    driver.crash_after_moves = faults.crash_for(id);
    driver.partition_after_moves = faults
        .partition_for(id)
        .map(|p| (p.after_submissions, p.duration));

    let token = session_token(session.seed, id);
    let inner = StreamClientTransport::<_, _, S>::connect(addr, id, world_digest, token)?;
    let hello = inner.handshake_bytes();
    let supervised = SupervisedClientTransport::new(inner, id, session);
    let mut transport = FaultyClientTransport::new(supervised, faults, id.index());
    let mut report = driver.run_client(engine, workload, &mut transport)?;
    report.bytes_out += hello.load(Ordering::Relaxed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::scripted::{check_seed, frame_of, payload, Caller, Got, ScriptedStream};
    use crate::lane::scripted::{SplitMix64, SCALE_SEEDS, SEEDS, UNDECODABLE};

    /// The client's side of a lane: `send` and `recv`'s pass over it.
    struct ClientSide;

    impl Caller for ClientSide {
        fn hello(&self) -> Vec<u8> {
            Vec::new()
        }

        fn inbound(&self, rng: &mut SplitMix64) -> (Vec<u8>, Option<Got>) {
            match rng.below(8) {
                0 => (frame_of(&RtDown::<Vec<u8>>::Stop), Some(Got::Stop)),
                _ => {
                    let p = payload(rng);
                    (frame_of(&RtDown::Msg(&p)), Some(Got::Msg(p)))
                }
            }
        }

        fn open(&self, stream: ScriptedStream) -> Lane<ScriptedStream> {
            stream.set_nonblocking(true);
            Lane::with_inbound(stream, Vec::new())
        }

        fn frame(&self, payload: &[u8]) -> Vec<u8> {
            frame_of(&RtUp::Msg(payload))
        }

        fn send(
            &self,
            lane: &mut Option<Lane<ScriptedStream>>,
            batch: &[Vec<u8>],
            pool: &mut BufferPool,
        ) {
            for p in batch {
                if let Some(lane) = lane {
                    queue(lane, &RtUp::Msg(p), pool).expect("encode");
                }
            }
        }

        fn pump(
            &self,
            lane: &mut Option<Lane<ScriptedStream>>,
            got: &mut Vec<Got>,
            pool: &mut BufferPool,
        ) {
            let mut events = VecDeque::new();
            pump::<_, Vec<u8>>(lane, &mut events, pool);
            got.extend(events.into_iter().map(|e| match e {
                ClientEvent::Msg(m) => Got::Msg(m),
                ClientEvent::Stop => Got::Stop,
                ClientEvent::Closed => Got::Broke,
                ClientEvent::Timeout => panic!("a pass over the lane reports no timeout"),
            }));
        }
    }

    #[test]
    fn scripted_streams_keep_every_frame() {
        assert!(wire::from_bytes::<RtDown<Vec<u8>>>(&UNDECODABLE).is_err());
        for seed in 0..SEEDS {
            check_seed(&ClientSide, seed);
        }
    }

    #[test]
    #[ignore = "for scripts/verify.sh --chaos"]
    fn scripted_streams_at_scale() {
        for seed in 0..SCALE_SEEDS {
            check_seed(&ClientSide, seed);
        }
    }
}
