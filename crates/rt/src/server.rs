//! The server host.
//!
//! Hosts any [`ServerNode`] engine — the exact state machines the
//! simulator drives — over real sockets or in-memory pipes, packaged as a
//! [`StreamServerTransport`]. One background thread accepts connections and
//! checks each hello; every seated stream is then nonblocking and belongs
//! to the engine thread, which reads and writes all of them itself (one
//! [`Lane`] per client). The engine loop — wall-clock tick (τ) and push
//! (ω·RTT) timers interleaved with message dispatch — is the driver
//! layer's [`NodeDriver::run_server`].
//!
//! A socket that breaks surfaces as one `Gone` for its seat. The
//! [`SupervisedServerTransport`] stacked on top holds the seat for a
//! resume, resends the unacked tail when the client's new connection
//! presents its token, and reaps the seat if none comes; inside a live
//! connection TCP already orders and retransmits, and nothing is resent.

use crate::frame::{FrameError, FrameReader};
use crate::lane::{encode, recycle, wait, Lane, Stream};
use crate::wire::{self, BufferPool};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use seve_core::engine::{ServerNode, ShareId, ShareKey};
use seve_driver::{
    session_token, EgressStats, NodeDriver, ServerEvent, ServerTransport, SessionParams,
    SupervisedServerTransport,
};
use seve_world::ids::ClientId;
use seve_world::GameWorld;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use seve_driver::ServerReport;

/// Client → server transport envelope.
#[derive(Serialize, Deserialize, Debug)]
pub enum RtUp<M> {
    /// Identify the connecting client.
    Hello {
        /// The client index.
        client: u16,
        /// Digest of the client's initial world state. Replicas built from
        /// different world parameters can never converge; the server
        /// rejects mismatches at the door instead of diverging silently.
        world_digest: u64,
        /// The session token (see [`session_token`]). Lets a reconnecting
        /// client reclaim its seat mid-run; a connection presenting the
        /// wrong token for an occupied seat is refused.
        token: u64,
    },
    /// A protocol message.
    Msg(M),
    /// The client has finished its workload and drained.
    Bye,
}

/// Server → client transport envelope.
#[derive(Serialize, Deserialize, Debug)]
pub enum RtDown<M> {
    /// A protocol message.
    Msg(M),
    /// Session over; the client may disconnect.
    Stop,
}

/// Borrowing encoder for [`RtDown::Msg`]: serializes byte-identically to
/// `RtDown::Msg(msg)` — same variant index, same payload — without moving
/// or cloning the message into the envelope. This is what lets the fan-out
/// encode each outbound message exactly once, straight from the engine's
/// batch slice.
struct RtDownMsgRef<'a, M>(&'a M);

impl<M: Serialize> Serialize for RtDownMsgRef<'_, M> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_newtype_variant("RtDown", 0, "Msg", self.0)
    }
}

/// How long [`StreamServerTransport`]'s `stop_all` keeps flushing the `Stop`
/// frames before it retires the lanes whose peer stopped reading.
const STOP_GRACE: Duration = Duration::from_millis(100);

/// Flush and read every lane once, starting at lane `first`, and queue
/// each whole frame as an event from its client: `Msg` for a message,
/// `Done` for a goodbye (the lane stays open — the client still relays
/// completions for tail actions); a duplicate hello is ignored. Then
/// unseat the broken lanes. Returns the write calls issued.
fn sweep_lanes<S: Read + Write, U: DeserializeOwned>(
    lanes: &mut [Option<Lane<S>>],
    first: usize,
    events: &mut VecDeque<ServerEvent<U>>,
    pool: &mut BufferPool,
) -> u64 {
    let mut batches = 0;
    let n = lanes.len();
    for i in (first..n).chain(0..first) {
        if let Some(lane) = &mut lanes[i] {
            batches += lane.flush(pool);
            let c = ClientId(i as u16);
            lane.read(|payload| {
                match wire::from_bytes::<RtUp<U>>(payload) {
                    Ok(RtUp::Msg(m)) => events.push_back(ServerEvent::Msg(c, m)),
                    Ok(RtUp::Bye) => events.push_back(ServerEvent::Done(c)),
                    Ok(RtUp::Hello { .. }) => {}
                    Err(_) => return false,
                }
                true
            });
        }
    }
    unseat_broken(lanes, events, pool);
    batches
}

/// Unseat every broken lane, reporting each [`ServerEvent::Gone`] once.
fn unseat_broken<S: Read + Write, U>(
    lanes: &mut [Option<Lane<S>>],
    events: &mut VecDeque<ServerEvent<U>>,
    pool: &mut BufferPool,
) {
    for (i, slot) in lanes.iter_mut().enumerate() {
        if slot.as_ref().is_some_and(Lane::is_broken) {
            slot.take().expect("a broken lane").retire(pool);
            events.push_back(ServerEvent::Gone(ClientId(i as u16)));
        }
    }
}

/// Write one engine step's outbound batch to the client lanes, returning
/// `(bytes queued, vectored-write calls issued)`.
///
/// The encode-once egress stage of the real-time host:
///
/// 1. **Encode.** Each message is framed exactly once into a buffer from
///    `pool` (length prefix back-patched — see
///    [`crate::frame::encode_frame_into`]). Messages whose `share_key`
///    matches an earlier message in the same batch — broadcast payloads
///    like GC notices and shared-span batches — reuse the earlier frame
///    (`Arc` clone) instead of re-encoding; `share_key` returning `None`
///    always encodes individually. Frame boundaries on the wire are one
///    frame per message. Messages for a missing or broken lane are
///    skipped; if any encode fails, nothing is queued.
/// 2. **Write.** Each frame is appended to its destination's tail, and
///    every lane with a tail is flushed ([`Lane::flush`]) until its
///    socket would block. Nothing here waits on a client: what a socket
///    does not take now stays queued, ahead of later frames, for the next
///    flush.
///
/// A frame buffer returns to `pool` once every lane it was queued on has
/// written it, so the steady state allocates nothing.
pub fn fan_out<S: Read + Write, M: Serialize>(
    lanes: &mut [Option<Lane<S>>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
) -> Result<(u64, u64), FrameError> {
    let mut frames: Vec<(usize, Arc<Vec<u8>>)> = Vec::with_capacity(out.len());
    if let Err(e) = encode_batch(lanes, out, share_key, pool, &mut frames) {
        for (_, f) in frames {
            recycle(f, pool);
        }
        return Err(e);
    }
    let mut bytes = 0u64;
    for (i, f) in frames {
        bytes += f.len() as u64;
        lanes[i].as_mut().expect("encoded for a live lane").push(f);
    }
    let mut batches = 0u64;
    for lane in lanes.iter_mut().flatten() {
        batches += lane.flush(pool);
    }
    Ok((bytes, batches))
}

/// [`fan_out`]'s encode phase: one `(lane index, frame)` per message for a
/// live lane, in batch order.
fn encode_batch<S: Read + Write, M: Serialize>(
    lanes: &[Option<Lane<S>>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
    frames: &mut Vec<(usize, Arc<Vec<u8>>)>,
) -> Result<(), FrameError> {
    // The cache lives only for this batch: the Arcs in `frames` keep the
    // pointed-to buffers alive, so a ShareId can never alias a recycled
    // frame within the batch.
    let mut cache: HashMap<ShareId, Arc<Vec<u8>>> = HashMap::new();
    for (dest, msg) in out {
        let i = dest.index();
        if lanes[i].as_ref().is_none_or(Lane::is_broken) {
            continue;
        }
        let frame = match share_key(msg) {
            Some(k) => match cache.entry(k) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(v) => Arc::clone(v.insert(encode(&RtDownMsgRef(msg), pool)?)),
            },
            None => encode(&RtDownMsgRef(msg), pool)?,
        };
        frames.push((i, frame));
    }
    Ok(())
}

/// The server's side of a framed session over TCP or pipes, driven
/// entirely from the engine thread: one [`Lane`] per seated client.
/// Implements [`ServerTransport`] so [`NodeDriver::run_server`] can drive
/// any engine over it.
///
/// `recv` returns queued events first. With none queued it *sweeps*: it
/// installs the connections the acceptor has seated since (a resume
/// replaces the client's lane outright), then for each lane flushes its
/// tail and reads it until the socket would block, queueing whole frames.
/// A lane that breaks is unseated and reported [`ServerEvent::Gone`]
/// exactly once. `send_batch` is [`fan_out`]. No call waits on a client.
pub struct StreamServerTransport<U, D, S: Stream = TcpStream> {
    lanes: Vec<Option<Lane<S>>>,
    /// Connections that passed the handshake, from the acceptor thread.
    seats: Receiver<(ClientId, Lane<S>)>,
    events: VecDeque<ServerEvent<U>>,
    /// The lane the last sweep started at.
    first: usize,
    /// Recycled encode buffers: after warm-up, every frame encodes into a
    /// buffer from a previous batch instead of a fresh allocation.
    pool: BufferPool,
    writev_batches: u64,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    _down: PhantomData<D>,
}

impl<U, D, S> StreamServerTransport<U, D, S>
where
    U: DeserializeOwned + Send + 'static,
    S: Stream,
{
    /// Accept connections on `listener` for a session with one seat per
    /// token, and return once every seat is taken.
    ///
    /// A background thread accepts and handshakes: a connection must open
    /// with a hello whose world digest is `world_digest` and whose token is
    /// its seat's (see [`session_token`]). It takes the seat even when the
    /// seat is occupied — a mid-run resume — and any other connection is
    /// refused. The thread runs until the transport is dropped.
    pub fn accept(listener: S::Listener, world_digest: u64, tokens: Vec<u64>) -> io::Result<Self> {
        let n = tokens.len();
        let (tx, seats) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor =
            spawn_acceptor::<U, S>(listener, world_digest, tokens, tx, Arc::clone(&stop))?;
        let mut t = Self {
            lanes: (0..n).map(|_| None).collect(),
            seats,
            events: VecDeque::new(),
            first: 0,
            pool: BufferPool::new(),
            writev_batches: 0,
            stop,
            acceptor: Some(acceptor),
            _down: PhantomData,
        };
        while t.lanes.iter().any(Option::is_none) {
            let (c, lane) = t
                .seats
                .recv()
                .map_err(|_| io::Error::other("the acceptor thread ended"))?;
            t.install(c, lane);
        }
        Ok(t)
    }
}

impl<U: DeserializeOwned, D, S: Stream> StreamServerTransport<U, D, S> {
    /// Seat `lane` as client `c`'s, retiring the lane it replaces.
    fn install(&mut self, c: ClientId, lane: Lane<S>) {
        if let Some(old) = self.lanes[c.index()].replace(lane) {
            old.retire(&mut self.pool);
        }
    }

    /// The next queued event. With none queued, install new seats, then
    /// flush and read every lane once; each sweep starts one lane further
    /// on, so no client's frames are always queued first.
    fn poll(&mut self) -> Option<ServerEvent<U>> {
        if self.events.is_empty() {
            while let Ok((c, lane)) = self.seats.try_recv() {
                self.install(c, lane);
            }
            self.first = (self.first + 1) % self.lanes.len().max(1);
            self.writev_batches += sweep_lanes(
                &mut self.lanes,
                self.first,
                &mut self.events,
                &mut self.pool,
            );
        }
        self.events.pop_front()
    }
}

impl<U: DeserializeOwned, D: Serialize + ShareKey, S: Stream> ServerTransport<U, D>
    for StreamServerTransport<U, D, S>
{
    type Error = FrameError;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, FrameError> {
        Ok(wait(timeout, || self.poll()).unwrap_or(ServerEvent::Timeout))
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, FrameError> {
        let (bytes, batches) = fan_out(&mut self.lanes, out, D::share_key, &mut self.pool)?;
        self.writev_batches += batches;
        unseat_broken(&mut self.lanes, &mut self.events, &mut self.pool);
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), FrameError> {
        // Best effort and bounded: a client that already vanished is not
        // an error, and one that stopped reading is waited for only
        // STOP_GRACE, then retired with its tail.
        let stop = encode(&RtDown::<D>::Stop, &mut self.pool)?;
        for lane in self.lanes.iter_mut().flatten() {
            lane.push(Arc::clone(&stop));
        }
        recycle(stop, &mut self.pool);
        wait(STOP_GRACE, || {
            for lane in self.lanes.iter_mut().flatten() {
                self.writev_batches += lane.flush(&mut self.pool);
            }
            let mut lanes = self.lanes.iter().flatten();
            lanes.all(|l| l.is_flushed() || l.is_broken()).then_some(())
        });
        for slot in &mut self.lanes {
            if slot.as_ref().is_some_and(|l| !l.is_flushed()) {
                slot.take().expect("a lane").retire(&mut self.pool);
            }
        }
        Ok(())
    }

    fn release(&mut self, c: ClientId) -> Result<(), FrameError> {
        // Reap: retire the lane now — its socket closes and its queued
        // frames return to the pool.
        if let Some(lane) = self.lanes[c.index()].take() {
            lane.retire(&mut self.pool);
        }
        Ok(())
    }

    fn egress_stats(&self) -> EgressStats {
        EgressStats {
            pool_hits: self.pool.hits(),
            pool_misses: self.pool.misses(),
            writev_batches: self.writev_batches,
            pool_outstanding: self.pool.outstanding(),
            ..EgressStats::default()
        }
    }
}

impl<U, D, S: Stream> Drop for StreamServerTransport<U, D, S> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Spawn the accept/handshake thread. It outlives the initial seating
/// round so clients that lose their connection mid-run can reconnect and
/// resume their session, and it ends once `stop` is set.
fn spawn_acceptor<U, S>(
    listener: S::Listener,
    world_digest: u64,
    tokens: Vec<u64>,
    seats: Sender<(ClientId, Lane<S>)>,
    stop: Arc<AtomicBool>,
) -> io::Result<JoinHandle<()>>
where
    U: DeserializeOwned + 'static,
    S: Stream,
{
    // Nonblocking accept so the thread can notice the stop flag; accepted
    // streams are blocking for the handshake.
    S::listen(&listener)?;
    Ok(std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match S::accept(&listener) {
                Ok(stream) => {
                    if let Some(seat) = seat::<_, U>(stream, world_digest, &tokens) {
                        if seats.send(seat).is_err() {
                            return;
                        }
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }))
}

/// [`handshake`] a freshly accepted connection, and hand its lane over
/// nonblocking.
fn seat<S: Stream, U: DeserializeOwned>(
    stream: S,
    world_digest: u64,
    tokens: &[u64],
) -> Option<(ClientId, Lane<S>)> {
    stream.set_nonblocking(false).ok()?;
    // A peer that connects but never completes its hello must not wedge
    // the acceptor — bound the handshake read.
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    let (c, lane) = handshake::<_, U>(stream, world_digest, tokens)?;
    lane.stream().set_nonblocking(true).ok()?;
    Some((c, lane))
}

/// Read and check a connection's hello from the blocking `stream`. Returns
/// the seat it may take and its lane, or `None` for a connection that is
/// refused. Bytes read past the hello start the lane's inbound stream: the
/// client may send its first frames (a `Resume`, say) in the same write as
/// the hello.
fn handshake<S: Read + Write, U: DeserializeOwned>(
    stream: S,
    world_digest: u64,
    tokens: &[u64],
) -> Option<(ClientId, Lane<S>)> {
    let mut reader = FrameReader::new(stream);
    // The first frame must identify the client.
    let Ok(RtUp::Hello {
        client,
        world_digest: theirs,
        token,
    }) = reader.read_msg::<RtUp<U>>()
    else {
        return None;
    };
    if theirs != world_digest {
        // Incompatible world build: replicas built from different world
        // parameters can never converge, so refuse at the door.
        eprintln!(
            "seve-rt: rejecting client {client}: world digest {theirs:x} != \
             ours {world_digest:x} (mismatched parameters?)"
        );
        return None;
    }
    let Some(&seat_token) = tokens.get(client as usize) else {
        let n = tokens.len();
        eprintln!("seve-rt: rejecting client {client}: id out of range (session has {n} seats)");
        return None;
    };
    if token != seat_token {
        eprintln!("seve-rt: rejecting client {client}: bad session token");
        return None;
    }
    let (stream, leftover) = reader.into_parts();
    Some((ClientId(client), Lane::with_inbound(stream, leftover)))
}

/// Accept `n` clients on `listener` and run `engine` until every client
/// says goodbye. `tick` and `push` are the wall-clock cycle periods (push
/// ignored when the engine does not push). `world_digest` is the digest of
/// the initial world state; clients presenting a different digest are
/// rejected (their replicas could never converge).
///
/// The transport carries sequence-numbered session envelopes and is
/// wrapped in a [`SupervisedServerTransport`] under `session`
/// ([`SessionParams::default`] for a plain run): a reconnecting client may
/// reclaim its seat mid-run by presenting its session token, and is then
/// resent every down-lane frame past its last cumulative ack; a crashed
/// client is reaped after the liveness deadline, and so is one that owes
/// an ack and has sent nothing for as long.
pub fn run_server_with<W, S>(
    engine: S,
    listener: TcpListener,
    n: usize,
    tick: Duration,
    push: Duration,
    world_digest: u64,
    session: SessionParams,
) -> Result<ServerReport, FrameError>
where
    W: GameWorld,
    S: ServerNode<W>,
    S::Up: DeserializeOwned + Send + 'static,
    S::Down: Serialize + ShareKey + Sync + Clone,
{
    serve::<W, S, TcpStream>(engine, listener, n, tick, push, world_digest, session)
}

/// [`run_server_with`] on any [`Stream`].
pub(crate) fn serve<W, E, S>(
    engine: E,
    listener: S::Listener,
    n: usize,
    tick: Duration,
    push: Duration,
    world_digest: u64,
    session: SessionParams,
) -> Result<ServerReport, FrameError>
where
    W: GameWorld,
    E: ServerNode<W>,
    E::Up: DeserializeOwned + Send + 'static,
    E::Down: Serialize + ShareKey + Sync + Clone,
    S: Stream,
{
    let tokens = (0..n as u16)
        .map(|c| session_token(session.seed, ClientId(c)))
        .collect();
    let inner = StreamServerTransport::<_, _, S>::accept(listener, world_digest, tokens)?;
    let mut transport = SupervisedServerTransport::new(inner, n, session);
    NodeDriver::server(tick, push).run_server(engine, &mut transport, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::scripted::{check_seed, frame_of, payload, Caller, Got, ScriptedStream};
    use crate::lane::scripted::{SplitMix64, SCALE_SEEDS, SEEDS, UNDECODABLE};
    use crate::pipe::Pipe;
    use crate::wire;
    use std::time::Instant;

    const DIGEST: u64 = 0x5EED;
    const TOKEN: u64 = 77;

    /// The server's side of a lane: the handshake, the sweep and
    /// [`fan_out`].
    struct ServerSide;

    impl Caller for ServerSide {
        fn hello(&self) -> Vec<u8> {
            frame_of(&RtUp::<Vec<u8>>::Hello {
                client: 0,
                world_digest: DIGEST,
                token: TOKEN,
            })
        }

        fn inbound(&self, rng: &mut SplitMix64) -> (Vec<u8>, Option<Got>) {
            match rng.below(8) {
                0 => (frame_of(&RtUp::<Vec<u8>>::Bye), Some(Got::Done)),
                1 => (self.hello(), None),
                _ => {
                    let p = payload(rng);
                    (frame_of(&RtUp::Msg(&p)), Some(Got::Msg(p)))
                }
            }
        }

        fn open(&self, stream: ScriptedStream) -> Lane<ScriptedStream> {
            let (c, lane) =
                handshake::<_, Vec<u8>>(stream, DIGEST, &[TOKEN]).expect("the hello is taken");
            assert_eq!(c, ClientId(0));
            lane.stream().set_nonblocking(true);
            lane
        }

        fn frame(&self, payload: &[u8]) -> Vec<u8> {
            frame_of(&RtDown::Msg(payload))
        }

        fn send(
            &self,
            lane: &mut Option<Lane<ScriptedStream>>,
            batch: &[Vec<u8>],
            pool: &mut BufferPool,
        ) {
            let out: Vec<_> = batch.iter().map(|p| (ClientId(0), p)).collect();
            fan_out(std::slice::from_mut(lane), &out, |_| None, pool).expect("encode");
        }

        fn pump(
            &self,
            lane: &mut Option<Lane<ScriptedStream>>,
            got: &mut Vec<Got>,
            pool: &mut BufferPool,
        ) {
            let mut events = VecDeque::new();
            sweep_lanes::<_, Vec<u8>>(std::slice::from_mut(lane), 0, &mut events, pool);
            got.extend(events.into_iter().map(|e| match e {
                ServerEvent::Msg(_, m) => Got::Msg(m),
                ServerEvent::Done(_) => Got::Done,
                ServerEvent::Gone(_) => Got::Broke,
                other => panic!("a sweep reports no {other:?}"),
            }));
        }
    }

    #[test]
    fn scripted_streams_keep_every_frame() {
        assert!(wire::from_bytes::<RtUp<Vec<u8>>>(&UNDECODABLE).is_err());
        for seed in 0..SEEDS {
            check_seed(&ServerSide, seed);
        }
    }

    #[test]
    #[ignore = "for scripts/verify.sh --chaos"]
    fn scripted_streams_at_scale() {
        for seed in 0..SCALE_SEEDS {
            check_seed(&ServerSide, seed);
        }
    }

    /// The pipe's version of `seat`'s one-second bound on a hello over
    /// TCP: a dial that never sends its hello is dropped after the bound,
    /// and the acceptor goes on to seat the next.
    #[test]
    fn a_silent_dial_does_not_wedge_the_acceptor() {
        let (dialer, listener) = mpsc::channel::<Pipe>();
        let mut silent = Pipe::dial(&dialer).expect("dial");
        let mut valid = Pipe::dial(&dialer).expect("dial");
        valid.write_all(&ServerSide.hello()).expect("hello");
        let (seated, rx) = mpsc::channel();
        let start = Instant::now();
        let acceptor = std::thread::spawn(move || {
            let t = StreamServerTransport::<u64, u64, Pipe>::accept(listener, DIGEST, vec![TOKEN]);
            seated.send(t.is_ok()).expect("the test waits");
        });
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(got, Ok(true), "the valid dial is seated");
        assert!(
            start.elapsed() >= Duration::from_secs(1),
            "after the silent one's bound"
        );
        assert_eq!(
            silent.read(&mut [0; 1]).expect("read"),
            0,
            "the silent dial is closed"
        );
        acceptor.join().expect("acceptor");
    }

    #[test]
    fn borrowed_envelope_encodes_like_the_owned_variant() {
        let msg = ("payload".to_string(), vec![1u64, 2, 3]);
        let owned = wire::to_bytes(&RtDown::Msg(msg.clone())).unwrap();
        let borrowed = wire::to_bytes(&RtDownMsgRef(&msg)).unwrap();
        assert_eq!(owned, borrowed);
    }
}
