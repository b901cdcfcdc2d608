//! The TCP server host.
//!
//! Hosts any [`ServerNode`] engine — the exact state machines the
//! simulator drives — over real sockets, packaged as a
//! [`TcpServerTransport`]. One background thread accepts connections and
//! checks each hello; every seated socket is then nonblocking and belongs
//! to the engine thread, which reads and writes all of them itself (one
//! [`Lane`] per client). The engine loop — wall-clock tick (τ) and push
//! (ω·RTT) timers interleaved with message dispatch — is the driver
//! layer's [`NodeDriver::run_server`], shared with the in-process backend.

use crate::frame::{encode_frame_into, FrameError, FrameReader, MAX_FRAME};
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
use std::io::{self, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Coalescing threshold: the most frames handed to one `write_vectored`
/// call. Past this the syscall savings are already banked and the iovec
/// itself starts costing.
const WRITEV_MAX_FRAMES: usize = 64;

/// Initial size of a lane's inbound buffer; it doubles only when one
/// frame does not fit.
const INBOUND_CHUNK: usize = 8 * 1024;

/// Most reads one sweep spends on one lane, so a peer that never stops
/// sending cannot keep the sweep from reaching the others.
const READS_PER_SWEEP: usize = 16;

/// Longest [`TcpServerTransport::recv`] sleeps between two sweeps while it
/// waits with nothing queued. std has no readiness wait (and this crate
/// forbids `unsafe`), so this bounds the delay the transport adds to a
/// reply when the engine answers submissions as they arrive. Engines that
/// speak on their cycles sleep to the cycle deadline and never wait here.
const IDLE_NAP: Duration = Duration::from_micros(200);

/// How long [`TcpServerTransport`]'s `stop_all` keeps flushing the `Stop`
/// frames before it retires the lanes whose peer stopped reading.
const STOP_GRACE: Duration = Duration::from_millis(100);

/// Hand a frame reference back: the last holder returns the buffer to
/// `pool`, so a frame shared by several lanes is recycled exactly once.
fn recycle(frame: Arc<Vec<u8>>, pool: &mut BufferPool) {
    if let Ok(buf) = Arc::try_unwrap(frame) {
        pool.put(buf);
    }
}

/// One seated client's nonblocking socket and its buffers, owned by the
/// engine thread.
///
/// Outbound, a lane is a FIFO of whole frames (its *tail*) of which the
/// front may be partly written: frames are only ever appended, and
/// [`Lane::flush`] writes from the front until the socket would block, so
/// the client reads its frames in the order they were queued and a client
/// that stops reading holds up nothing but its own tail. Inbound, a lane
/// accumulates bytes until a whole length-prefixed frame is present.
pub struct Lane {
    stream: TcpStream,
    /// Inbound bytes: `inbound[start..end]` has been read and not yet
    /// parsed. The whole vector stays initialized, so a read never zeroes
    /// it again.
    inbound: Vec<u8>,
    start: usize,
    end: usize,
    /// Frames queued for this client and not yet fully written, oldest
    /// first; the first `written` bytes of the front frame are on the wire.
    tail: VecDeque<Arc<Vec<u8>>>,
    written: usize,
    /// The peer closed, a read or write failed, or the peer sent a frame
    /// no client can have meant: the lane takes no further traffic.
    broken: bool,
}

impl Lane {
    /// Own `stream` as a lane, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        Self::with_inbound(stream, Vec::new())
    }

    /// [`Lane::new`] with `leftover` — bytes already read from the socket
    /// past the hello — as the start of the inbound stream.
    fn with_inbound(stream: TcpStream, leftover: Vec<u8>) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let end = leftover.len();
        let mut inbound = leftover;
        inbound.resize(end.max(INBOUND_CHUNK), 0);
        Ok(Self {
            stream,
            inbound,
            start: 0,
            end,
            tail: VecDeque::new(),
            written: 0,
            broken: false,
        })
    }

    /// Has every queued frame been written?
    pub fn is_flushed(&self) -> bool {
        self.tail.is_empty()
    }

    /// Has the lane failed (see [`Lane`]) and stopped taking traffic?
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Write queued frames through `write_vectored`, at most
    /// [`WRITEV_MAX_FRAMES`] per call, until the tail is empty or the
    /// socket would block. A partial write leaves the rest of its frame at
    /// the front, to be written first next time. Fully written frames go
    /// back to `pool`. Returns the write calls issued; a failed write
    /// breaks the lane.
    pub fn flush(&mut self, pool: &mut BufferPool) -> u64 {
        let mut batches = 0;
        while !self.broken && !self.tail.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITEV_MAX_FRAMES];
            let mut k = 0;
            for (slot, frame) in slices.iter_mut().zip(&self.tail) {
                *slot = IoSlice::new(if k == 0 {
                    &frame[self.written..]
                } else {
                    frame
                });
                k += 1;
            }
            match self.stream.write_vectored(&slices[..k]) {
                Ok(0) => self.broken = true,
                Ok(n) => {
                    batches += 1;
                    self.advance(n, pool);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
        batches
    }

    /// Move the write position `n` bytes on, retiring finished frames.
    fn advance(&mut self, mut n: usize, pool: &mut BufferPool) {
        while n > 0 {
            let left = self.tail[0].len() - self.written;
            if n < left {
                self.written += n;
                return;
            }
            n -= left;
            self.written = 0;
            recycle(self.tail.pop_front().expect("a written frame"), pool);
        }
    }

    /// Read what the peer has sent, until the socket would block, and
    /// queue each whole frame as an event from `c`: `Msg` for a message,
    /// `Done` for a goodbye (the lane stays open — the client still relays
    /// completions for tail actions). End of stream, a read error, a length
    /// prefix past [`MAX_FRAME`] or an undecodable payload breaks the lane;
    /// the frames before it are still queued.
    fn read<U: DeserializeOwned>(&mut self, c: ClientId, events: &mut VecDeque<ServerEvent<U>>) {
        self.parse(c, events);
        for _ in 0..READS_PER_SWEEP {
            if self.broken {
                return;
            }
            if self.end == self.inbound.len() {
                self.make_room();
            }
            let room = self.inbound.len() - self.end;
            match self.stream.read(&mut self.inbound[self.end..]) {
                Ok(0) => self.broken = true,
                Ok(n) => {
                    self.end += n;
                    self.parse(c, events);
                    if n < room {
                        // A short read drained the socket.
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
    }

    /// Free space after `end`: move the unparsed bytes to the front, and
    /// double the buffer if they fill it (one frame larger than it).
    fn make_room(&mut self) {
        self.inbound.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.inbound.len() {
            self.inbound.resize(2 * self.end, 0);
        }
    }

    /// Queue every whole frame in the inbound buffer.
    fn parse<U: DeserializeOwned>(&mut self, c: ClientId, events: &mut VecDeque<ServerEvent<U>>) {
        while !self.broken {
            let avail = &self.inbound[self.start..self.end];
            let Some(prefix) = avail.get(..4) else { break };
            let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME {
                self.broken = true;
                break;
            }
            let Some(payload) = avail.get(4..4 + len) else {
                break;
            };
            match wire::from_bytes::<RtUp<U>>(payload) {
                Ok(RtUp::Msg(m)) => events.push_back(ServerEvent::Msg(c, m)),
                Ok(RtUp::Bye) => events.push_back(ServerEvent::Done(c)),
                // A duplicate hello: ignore.
                Ok(RtUp::Hello { .. }) => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
            self.start += 4 + len;
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Close the socket and hand every queued frame back to `pool`.
    fn retire(mut self, pool: &mut BufferPool) {
        let _ = self.stream.shutdown(Shutdown::Both);
        for frame in self.tail.drain(..) {
            recycle(frame, pool);
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
pub fn fan_out<M: Serialize>(
    lanes: &mut [Option<Lane>],
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
        lanes[i]
            .as_mut()
            .expect("encoded for a live lane")
            .tail
            .push_back(f);
    }
    let mut batches = 0u64;
    for lane in lanes.iter_mut().flatten() {
        batches += lane.flush(pool);
    }
    Ok((bytes, batches))
}

/// [`fan_out`]'s encode phase: one `(lane index, frame)` per message for a
/// live lane, in batch order.
fn encode_batch<M: Serialize>(
    lanes: &[Option<Lane>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
    frames: &mut Vec<(usize, Arc<Vec<u8>>)>,
) -> Result<(), FrameError> {
    // The cache lives only for this batch: the Arcs in `frames` keep the
    // pointed-to buffers alive, so a ShareId can never alias a recycled
    // frame within the batch.
    let mut cache: HashMap<ShareId, Arc<Vec<u8>>> = HashMap::new();
    let encode = |msg: &M, pool: &mut BufferPool| -> Result<Arc<Vec<u8>>, FrameError> {
        let mut buf = pool.take();
        match encode_frame_into(&RtDownMsgRef(msg), &mut buf) {
            Ok(()) => Ok(Arc::new(buf)),
            Err(e) => {
                // Hand the partially-written buffer straight back so a
                // failed encode doesn't count as a leaked allocation.
                pool.put(buf);
                Err(e)
            }
        }
    };
    for (dest, msg) in out {
        let i = dest.index();
        if lanes[i].as_ref().is_none_or(Lane::is_broken) {
            continue;
        }
        let frame = match share_key(msg) {
            Some(k) => match cache.entry(k) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(v) => Arc::clone(v.insert(encode(msg, pool)?)),
            },
            None => encode(msg, pool)?,
        };
        frames.push((i, frame));
    }
    Ok(())
}

/// A connection that passed the handshake, on its way from the acceptor
/// thread to the engine thread.
struct Seat {
    client: ClientId,
    stream: TcpStream,
    /// Bytes the handshake read past the hello: the client may send its
    /// first frames (a `Resume`, say) in the same write as the hello.
    leftover: Vec<u8>,
}

/// The server's side of a framed-TCP session, driven entirely from the
/// engine thread: one [`Lane`] per seated client. Implements
/// [`ServerTransport`] so [`NodeDriver::run_server`] can drive any engine
/// over it.
///
/// `recv` returns queued events first. With none queued it *sweeps*: it
/// installs the connections the acceptor has seated since (a resume
/// replaces the client's lane outright), then for each lane flushes its
/// tail and reads it until the socket would block, queueing whole frames.
/// A lane that breaks is unseated and reported [`ServerEvent::Gone`]
/// exactly once. `send_batch` is [`fan_out`]. No call waits on a client.
pub struct TcpServerTransport<U, D> {
    lanes: Vec<Option<Lane>>,
    seats: Receiver<Seat>,
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

impl<U, D> TcpServerTransport<U, D>
where
    U: DeserializeOwned + Send + 'static,
{
    /// Accept connections on `listener` for a session with one seat per
    /// token, and return once every seat is taken.
    ///
    /// A background thread accepts and handshakes: a connection must open
    /// with a hello whose world digest is `world_digest` and whose token is
    /// its seat's (see [`session_token`]). It takes the seat even when the
    /// seat is occupied — a mid-run resume — and any other connection is
    /// refused. The thread runs until the transport is dropped.
    pub fn accept(listener: TcpListener, world_digest: u64, tokens: Vec<u64>) -> io::Result<Self> {
        let n = tokens.len();
        let (tx, seats) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor::<U>(listener, world_digest, tokens, tx, Arc::clone(&stop))?;
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
            let seat = t
                .seats
                .recv()
                .map_err(|_| io::Error::other("the acceptor thread ended"))?;
            t.install(seat);
        }
        Ok(t)
    }
}

impl<U, D> TcpServerTransport<U, D> {
    /// Give `seat` its client's lane, retiring the lane it replaces.
    fn install(&mut self, seat: Seat) {
        let Ok(lane) = Lane::with_inbound(seat.stream, seat.leftover) else {
            return;
        };
        if let Some(old) = self.lanes[seat.client.index()].replace(lane) {
            old.retire(&mut self.pool);
        }
    }

    /// Unseat every broken lane, reporting each `Gone` once.
    fn unseat_broken(&mut self) {
        for (i, slot) in self.lanes.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(Lane::is_broken) {
                slot.take().expect("a broken lane").retire(&mut self.pool);
                self.events.push_back(ServerEvent::Gone(ClientId(i as u16)));
            }
        }
    }
}

impl<U: DeserializeOwned, D> TcpServerTransport<U, D> {
    /// Install new seats, then flush and read every lane once. Each sweep
    /// starts one lane further on, so no client's frames are always queued
    /// first.
    fn sweep(&mut self) {
        while let Ok(seat) = self.seats.try_recv() {
            self.install(seat);
        }
        let n = self.lanes.len();
        self.first = (self.first + 1) % n.max(1);
        for i in (self.first..n).chain(0..self.first) {
            if let Some(lane) = &mut self.lanes[i] {
                self.writev_batches += lane.flush(&mut self.pool);
                lane.read(ClientId(i as u16), &mut self.events);
            }
        }
        self.unseat_broken();
    }
}

impl<U: DeserializeOwned, D: Serialize + ShareKey> ServerTransport<U, D>
    for TcpServerTransport<U, D>
{
    type Error = FrameError;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, FrameError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(e) = self.events.pop_front() {
                return Ok(e);
            }
            self.sweep();
            if !self.events.is_empty() {
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(ServerEvent::Timeout);
            }
            std::thread::sleep(left.min(IDLE_NAP));
        }
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, FrameError> {
        let (bytes, batches) = fan_out(&mut self.lanes, out, D::share_key, &mut self.pool)?;
        self.writev_batches += batches;
        self.unseat_broken();
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), FrameError> {
        // Best effort and bounded: a client that already vanished is not
        // an error, and one that stopped reading is waited for only
        // STOP_GRACE, then retired with its tail.
        let mut buf = self.pool.take();
        if let Err(e) = encode_frame_into(&RtDown::<D>::Stop, &mut buf) {
            self.pool.put(buf);
            return Err(e);
        }
        let stop = Arc::new(buf);
        for lane in self.lanes.iter_mut().flatten() {
            lane.tail.push_back(Arc::clone(&stop));
        }
        recycle(stop, &mut self.pool);
        let deadline = Instant::now() + STOP_GRACE;
        loop {
            for lane in self.lanes.iter_mut().flatten() {
                self.writev_batches += lane.flush(&mut self.pool);
            }
            let flushed = self
                .lanes
                .iter()
                .flatten()
                .all(|l| l.is_flushed() || l.is_broken());
            if flushed || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(IDLE_NAP);
        }
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

impl<U, D> Drop for TcpServerTransport<U, D> {
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
fn spawn_acceptor<U>(
    listener: TcpListener,
    world_digest: u64,
    tokens: Vec<u64>,
    seats: Sender<Seat>,
    stop: Arc<AtomicBool>,
) -> io::Result<JoinHandle<()>>
where
    U: DeserializeOwned + 'static,
{
    // Nonblocking accept so the thread can notice the stop flag; accepted
    // streams are blocking for the handshake.
    listener.set_nonblocking(true)?;
    Ok(std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(seat) = handshake::<U>(stream, world_digest, &tokens) {
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

/// Read and check one freshly accepted connection's hello. Returns the
/// seat it may take, or `None` for a connection that is refused.
fn handshake<U: DeserializeOwned>(
    stream: TcpStream,
    world_digest: u64,
    tokens: &[u64],
) -> Option<Seat> {
    stream.set_nonblocking(false).ok()?;
    stream.set_nodelay(true).ok()?;
    // A peer that connects but never completes its hello must not wedge
    // the acceptor — bound the handshake read.
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
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
    stream.set_read_timeout(None).ok()?;
    Some(Seat {
        client: ClientId(client),
        stream,
        leftover,
    })
}

/// Accept `n` clients on `listener` and run `engine` until every client
/// says goodbye. `tick` and `push` are the wall-clock cycle periods (push
/// ignored when the engine does not push). `world_digest` is the digest of
/// the initial world state; clients presenting a different digest are
/// rejected (their replicas could never converge). Runs a supervised
/// session with [`SessionParams::default`]; see [`run_server_with`].
pub fn run_server<W, S>(
    engine: S,
    listener: TcpListener,
    n: usize,
    tick: Duration,
    push: Duration,
    world_digest: u64,
) -> Result<ServerReport, FrameError>
where
    W: GameWorld,
    S: ServerNode<W>,
    S::Up: DeserializeOwned + Send + 'static,
    S::Down: Serialize + ShareKey + Sync + Clone,
{
    run_server_with(
        engine,
        listener,
        n,
        tick,
        push,
        world_digest,
        SessionParams::default(),
    )
}

/// [`run_server`] with explicit [`SessionParams`].
///
/// The TCP transport carries sequence-numbered session envelopes and is
/// wrapped in a [`SupervisedServerTransport`]: down-lane frames are resent
/// past the client's last cumulative ack on RTO, crashed clients are reaped
/// after the liveness deadline, and a reconnecting client may reclaim its
/// seat mid-run by presenting its session token.
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
    let tokens = (0..n as u16)
        .map(|c| session_token(session.seed, ClientId(c)))
        .collect();
    let inner = TcpServerTransport::accept(listener, world_digest, tokens)?;
    let mut transport = SupervisedServerTransport::new(inner, n, session);
    NodeDriver::server(tick, push).run_server(engine, &mut transport, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn borrowed_envelope_encodes_like_the_owned_variant() {
        let msg = ("payload".to_string(), vec![1u64, 2, 3]);
        let owned = wire::to_bytes(&RtDown::Msg(msg.clone())).unwrap();
        let borrowed = wire::to_bytes(&RtDownMsgRef(&msg)).unwrap();
        assert_eq!(owned, borrowed);
    }
}
