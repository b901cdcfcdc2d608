//! The threaded TCP server host.
//!
//! Hosts any [`ServerNode`] engine — the exact state machines the
//! simulator drives — over real sockets. The socket machinery lives here
//! (accept + hello handshake, one reader thread per client feeding a
//! channel, framed parallel fan-out back to the clients), packaged as a
//! [`TcpServerTransport`]; the engine loop itself — wall-clock tick (τ)
//! and push (ω·RTT) timers interleaved with message dispatch — is the
//! driver layer's [`NodeDriver::run_server`], shared with the in-process
//! backend.

use crate::frame::{encode_frame_into, write_msg, FrameError, FrameReader};
use crate::wire::BufferPool;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use seve_core::engine::{ServerNode, ShareId, ShareKey};
use seve_driver::{
    session_token, EgressStats, NodeDriver, ServerEvent, ServerTransport, SessionParams, SessionUp,
    SupervisedServerTransport,
};
use seve_world::ids::ClientId;
use seve_world::GameWorld;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

enum Inbound<M> {
    Msg(ClientId, M),
    /// Orderly goodbye.
    Done(ClientId),
    /// Connection lost without a goodbye (read error / EOF).
    Gone(ClientId),
}

/// Writer sockets shared between the transport (fan-out) and the acceptor
/// thread (seat installs and mid-run re-attaches).
type SharedWriters = Arc<Mutex<Vec<Option<TcpStream>>>>;

/// The server's side of a framed-TCP session: the merged inbound channel
/// the reader threads feed, plus one writer socket per seated client
/// (shared with the acceptor thread, which swaps sockets on resume).
/// Implements [`ServerTransport`] so [`NodeDriver::run_server`] can drive
/// any engine over it.
pub struct TcpServerTransport<U, D> {
    rx: Receiver<Inbound<U>>,
    writers: SharedWriters,
    /// Recycled encode buffers: after warm-up, every frame encodes into a
    /// buffer from a previous batch instead of a fresh allocation.
    pool: BufferPool,
    /// Persistent pool draining egress lanes: drain tasks block in socket
    /// `write`, so a lane stalled on a slow client occupies one pool lane
    /// and never the engine thread. Sized by [`drain_workers`] (at least 4
    /// even on one core — these lanes wait on I/O, not CPU).
    drain_pool: seve_exec::Executor,
    writev_batches: u64,
    _down: PhantomData<D>,
}

impl<U, D: Serialize + ShareKey + Sync> ServerTransport<U, D> for TcpServerTransport<U, D> {
    type Error = FrameError;

    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, FrameError> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(Inbound::Msg(from, m)) => ServerEvent::Msg(from, m),
            Ok(Inbound::Done(c)) => ServerEvent::Done(c),
            Ok(Inbound::Gone(c)) => ServerEvent::Gone(c),
            Err(RecvTimeoutError::Timeout) => ServerEvent::Timeout,
            Err(RecvTimeoutError::Disconnected) => ServerEvent::Closed,
        })
    }

    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, FrameError> {
        let mut writers = self.writers.lock().expect("writer seats");
        let (bytes, batches) = fan_out(
            &mut writers,
            out,
            D::share_key,
            &mut self.pool,
            &self.drain_pool,
        )?;
        self.writev_batches += batches;
        Ok(bytes)
    }

    fn stop_all(&mut self) -> Result<(), FrameError> {
        // Best effort: a client that already vanished is not an error.
        let mut writers = self.writers.lock().expect("writer seats");
        for w in writers.iter_mut().flatten() {
            let _ = write_msg(w, &RtDown::<D>::Stop);
        }
        Ok(())
    }

    fn release(&mut self, c: ClientId) -> Result<(), FrameError> {
        // Reap: retire the egress lane NOW. `shutdown(Both)` (not just a
        // drop) also unblocks the client's reader thread mid-`read`, so a
        // crashed client can no longer strand its session — its lane, its
        // pooled frames, and its reader all release here.
        let mut writers = self.writers.lock().expect("writer seats");
        if let Some(s) = writers[c.index()].take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        Ok(())
    }

    fn egress_stats(&self) -> EgressStats {
        let exec = self.drain_pool.stats();
        EgressStats {
            pool_hits: self.pool.hits(),
            pool_misses: self.pool.misses(),
            writev_batches: self.writev_batches,
            pool_outstanding: self.pool.outstanding(),
            exec_tasks: exec.tasks,
            exec_busy_nanos: exec.busy_nanos,
            exec_queue_hwm: exec.queue_hwm,
            ..EgressStats::default()
        }
    }
}

/// Handle to the background accept/handshake thread. It outlives the
/// initial seating round so clients that lose their connection mid-run can
/// reconnect and resume their session.
struct Acceptor {
    stop: Arc<AtomicBool>,
    writers: SharedWriters,
    handle: std::thread::JoinHandle<()>,
}

impl Acceptor {
    /// Stop accepting, retire every seated writer (`shutdown(Both)` also
    /// unblocks readers stuck in `read`), and join the acceptor thread —
    /// which joins its reader threads on the way out.
    fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in self.writers.lock().expect("writer seats").iter_mut() {
            if let Some(s) = w.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let _ = self.handle.join();
    }
}

/// Spawn the accept/handshake thread for a session with one seat per
/// token.
///
/// Seating is by token: a connection presenting its seat's token (see
/// [`session_token`]) takes the seat even when it is occupied — a mid-run
/// resume; the stale socket is shut down and its reader silenced via a
/// generation counter — and a connection presenting any other token is
/// refused.
fn spawn_acceptor<U>(
    listener: TcpListener,
    world_digest: u64,
    tokens: Vec<u64>,
    tx: Sender<Inbound<U>>,
) -> io::Result<Acceptor>
where
    U: DeserializeOwned + Send + 'static,
{
    // Nonblocking accept so the thread can notice the stop flag; seated
    // streams are flipped back to blocking before the handshake.
    listener.set_nonblocking(true)?;
    let n = tokens.len();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: SharedWriters = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let gens: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let handle = {
        let stop = Arc::clone(&stop);
        let writers = Arc::clone(&writers);
        std::thread::spawn(move || {
            let mut readers = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let stream = match listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                };
                if let Ok(Some(r)) =
                    seat_client::<U>(stream, world_digest, &tokens, &writers, &gens, &tx)
                {
                    readers.push(r);
                }
            }
            for r in readers {
                let _ = r.join();
            }
        })
    };
    Ok(Acceptor {
        stop,
        writers,
        handle,
    })
}

/// Handshake one freshly accepted connection and, if it checks out, seat
/// it: install its writer, bump the seat's generation, and spawn its
/// reader thread. Returns `Ok(None)` for rejected connections.
fn seat_client<U>(
    stream: TcpStream,
    world_digest: u64,
    tokens: &[u64],
    writers: &SharedWriters,
    gens: &Arc<Vec<AtomicU64>>,
    tx: &Sender<Inbound<U>>,
) -> io::Result<Option<std::thread::JoinHandle<()>>>
where
    U: DeserializeOwned + Send + 'static,
{
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    // A peer that connects but never completes its hello must not wedge
    // the acceptor — bound the handshake read, then lift the bound for
    // the session proper.
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    // The first frame must identify the client.
    let Ok(RtUp::Hello {
        client,
        world_digest: theirs,
        token,
    }) = reader.read_msg::<RtUp<U>>()
    else {
        return Ok(None);
    };
    if theirs != world_digest {
        // Incompatible world build: replicas built from different world
        // parameters can never converge, so refuse at the door.
        eprintln!(
            "seve-rt: rejecting client {client}: world digest {theirs:x} != \
             ours {world_digest:x} (mismatched parameters?)"
        );
        return Ok(None);
    }
    let Some(&seat_token) = tokens.get(client as usize) else {
        let n = tokens.len();
        eprintln!("seve-rt: rejecting client {client}: id out of range (session has {n} seats)");
        return Ok(None);
    };
    if token != seat_token {
        eprintln!("seve-rt: rejecting client {client}: bad session token");
        return Ok(None);
    }
    stream.set_read_timeout(None)?;

    let id = ClientId(client);
    // Bump the seat generation BEFORE retiring the old socket, so the old
    // reader — woken by the shutdown — observes a newer generation and
    // stays quiet instead of reporting a spurious loss.
    let gen = gens[id.index()].fetch_add(1, Ordering::SeqCst) + 1;
    let old = writers.lock().expect("writer seats")[id.index()].replace(stream);
    if let Some(old) = old {
        let _ = old.shutdown(Shutdown::Both);
    }
    let tx = tx.clone();
    let gens = Arc::clone(gens);
    Ok(Some(std::thread::spawn(move || loop {
        match reader.read_msg::<RtUp<U>>() {
            Ok(RtUp::Msg(m)) => {
                if tx.send(Inbound::Msg(id, m)).is_err() {
                    break;
                }
            }
            Ok(RtUp::Bye) => {
                // Count the goodbye but keep reading: the client still
                // relays completions for tail actions it receives while
                // other clients finish (its phase 3). The thread ends
                // when the client closes the socket after Stop.
                let _ = tx.send(Inbound::Done(id));
            }
            Ok(RtUp::Hello { .. }) => {
                // Duplicate hello: ignore.
            }
            Err(_) => {
                // Only the connection currently holding the seat reports
                // the loss; a reader whose socket was replaced by a
                // resume stays quiet.
                if gens[id.index()].load(Ordering::SeqCst) == gen {
                    let _ = tx.send(Inbound::Gone(id));
                }
                break;
            }
        }
    })))
}

/// Block until every seat has a writer installed (the initial full house).
fn wait_for_full_house(writers: &SharedWriters) {
    loop {
        if writers
            .lock()
            .expect("writer seats")
            .iter()
            .all(Option::is_some)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
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
    let (tx, rx) = channel::unbounded::<Inbound<SessionUp<S::Up>>>();
    let tokens = (0..n as u16)
        .map(|c| session_token(session.seed, ClientId(c)))
        .collect();
    let acceptor = spawn_acceptor(listener, world_digest, tokens, tx.clone())?;
    wait_for_full_house(&acceptor.writers);
    let inner = TcpServerTransport {
        rx,
        writers: Arc::clone(&acceptor.writers),
        pool: BufferPool::new(),
        drain_pool: seve_exec::Executor::new(drain_workers()),
        writev_batches: 0,
        _down: PhantomData,
    };
    let mut transport = SupervisedServerTransport::new(inner, n, session);
    let report = NodeDriver::server(tick, push).run_server(engine, &mut transport, n);
    drop(transport);
    drop(tx);
    acceptor.shutdown();
    report
}

/// Coalescing threshold: the most frames handed to one `write_vectored`
/// call. Past this the syscall savings are already banked and the iovec
/// itself starts costing.
const WRITEV_MAX_FRAMES: usize = 64;

/// Width of the persistent drain pool: a few lanes per core covers
/// sockets blocked in `write`, floored at 4 so stall isolation holds even
/// on a single-core host (drain lanes wait on I/O, not CPU).
fn drain_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism().map_or(4, |p| (p.get() * 2).clamp(4, 16))
    })
}

/// One drain worker's unit of work on the persistent pool: pulls whole
/// lanes from the shared queue and returns `(bytes written, writev
/// batches, dead lane indices)` or the first *non-disconnect* socket
/// error it hit.
type DrainTask<'a> = Box<dyn FnOnce() -> Result<(u64, u64, Vec<usize>), FrameError> + Send + 'a>;

/// Is this write error the peer being gone (as opposed to a local fault)?
/// A vanished peer is a liveness event for the supervision layer, not a
/// fatal transport error: the lane is unseated and the tick goes on.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
    )
}

/// Write one engine step's outbound batch to the client sockets, returning
/// `(bytes written, vectored-write batches issued)`.
///
/// The encode-once egress stage of the real-time host, in two phases:
///
/// 1. **Encode.** Each message is framed exactly once into a buffer from
///    `pool` (length prefix back-patched — see
///    [`crate::frame::encode_frame_into`]). Messages whose `share_key`
///    matches an earlier message in the same batch — broadcast payloads
///    like GC notices and shared-span batches — reuse the earlier frame
///    (`Arc` clone) instead of re-encoding; `share_key` returning `None`
///    always encodes individually. Frame boundaries on the wire are one
///    frame per message, identical to the per-message `write_msg` path.
/// 2. **Drain.** Each busy destination's ordered frame list is written by
///    exactly one worker through `write_vectored` in chunks of up to
///    [`WRITEV_MAX_FRAMES`] frames. Worker tasks — capped at the drain
///    pool's width, not one per client — run on `exec`, the transport's
///    *persistent* drain pool (zero thread spawns per cycle), and pull
///    whole lanes from a shared queue, while a destination stalled in
///    `write` occupies only its task's lane and the rest keep draining.
///    One lane never splits across workers and successive `fan_out`
///    calls are sequential, so per-client FIFO delivery (the ordering
///    contract the replay log depends on) is preserved.
///
/// Afterwards every frame buffer whose references have drained returns to
/// `pool`, so the steady state allocates nothing.
pub fn fan_out<M: Serialize + Sync>(
    writers: &mut [Option<TcpStream>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
    exec: &seve_exec::Executor,
) -> Result<(u64, u64), FrameError> {
    let mut frames: Vec<Arc<Vec<u8>>> = Vec::with_capacity(out.len());
    let mut lanes: Vec<Vec<Arc<Vec<u8>>>> = (0..writers.len()).map(|_| Vec::new()).collect();
    let result = encode_and_drain(writers, out, share_key, pool, exec, &mut frames, &mut lanes);

    // Recycle unconditionally — also when encode or drain bailed early —
    // so buffers taken this batch are never leaked and the pool's miss
    // counter stays truthful on the next one. The lane lists are done, so
    // each buffer is back to a single reference.
    drop(lanes);
    for f in frames {
        if let Ok(buf) = Arc::try_unwrap(f) {
            pool.put(buf);
        }
    }
    result
}

/// [`fan_out`]'s encode + drain phases, with the frame/lane lists owned by
/// the caller so it can recycle them on both the `Ok` and `Err` paths.
fn encode_and_drain<M: Serialize + Sync>(
    writers: &mut [Option<TcpStream>],
    out: &[(ClientId, M)],
    share_key: impl Fn(&M) -> Option<ShareId>,
    pool: &mut BufferPool,
    exec: &seve_exec::Executor,
    frames: &mut Vec<Arc<Vec<u8>>>,
    lanes: &mut [Vec<Arc<Vec<u8>>>],
) -> Result<(u64, u64), FrameError> {
    // Phase 1: encode each distinct frame once; build per-lane frame lists
    // (order preserved within each lane).
    {
        // The cache lives only for this batch: the Arcs in `frames` keep
        // the pointed-to buffers alive, so a ShareId can never alias a
        // recycled frame within the batch.
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
            if writers[dest.index()].is_none() {
                continue;
            }
            let frame = match share_key(msg) {
                Some(k) => match cache.entry(k) {
                    Entry::Occupied(e) => e.get().clone(),
                    Entry::Vacant(v) => {
                        let f = encode(msg, pool)?;
                        frames.push(Arc::clone(&f));
                        v.insert(Arc::clone(&f));
                        f
                    }
                },
                None => {
                    let f = encode(msg, pool)?;
                    frames.push(Arc::clone(&f));
                    f
                }
            };
            lanes[dest.index()].push(frame);
        }
    }

    // Phase 2: drain each busy lane. The writer slice is partitioned into
    // disjoint `&mut` sockets, so workers cannot interleave on a stream.
    // A lane whose peer vanished mid-write is unseated (its writer taken
    // and shut down), never fatal: the supervised layer still holds the
    // frames in its resend window and will retransmit once the client
    // resumes — or reap the lane at the liveness deadline.
    let busy = lanes.iter().filter(|l| !l.is_empty()).count();
    let mut totals = (0u64, 0u64);
    let mut dead: Vec<usize> = Vec::new();
    if busy <= 1 {
        // Nothing to overlap: drain inline on this thread.
        for (i, (w, lane)) in writers.iter_mut().zip(lanes.iter()).enumerate() {
            if let (Some(sock), false) = (w.as_mut(), lane.is_empty()) {
                let (b, k, down) = drain_lane(sock, lane)?;
                totals = (totals.0 + b, totals.1 + k);
                if down {
                    dead.push(i);
                }
            }
        }
    } else {
        type LaneRef<'a> = (usize, &'a mut TcpStream, &'a [Arc<Vec<u8>>]);
        let lane_refs: Vec<LaneRef<'_>> = writers
            .iter_mut()
            .zip(lanes.iter())
            .enumerate()
            .filter_map(|(i, (w, l))| match w {
                Some(w) if !l.is_empty() => Some((i, w, l.as_slice())),
                _ => None,
            })
            .collect();
        let workers = lane_refs.len().min(exec.width());
        let queue = std::sync::Mutex::new(lane_refs);
        let tasks: Vec<DrainTask<'_>> = (0..workers)
            .map(|_| {
                let queue = &queue;
                let task: DrainTask<'_> = Box::new(move || {
                    let mut totals = (0u64, 0u64, Vec::new());
                    loop {
                        // Pop into a local first: a `while let` scrutinee
                        // would keep the MutexGuard alive across the
                        // blocking drain below, serializing all workers.
                        let job = queue.lock().expect("lane queue").pop();
                        let Some((i, w, lane)) = job else { break };
                        let (b, k, down) = drain_lane(w, lane)?;
                        totals.0 += b;
                        totals.1 += k;
                        if down {
                            totals.2.push(i);
                        }
                    }
                    Ok(totals)
                });
                task
            })
            .collect();
        let results = exec.run(tasks).expect("fan-out worker panicked");
        for r in results {
            let (b, k, mut down) = r?;
            totals.0 += b;
            totals.1 += k;
            dead.append(&mut down);
        }
    }
    for i in dead {
        if let Some(s) = writers[i].take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
    Ok(totals)
}

/// Drain one client's ordered frame list through vectored writes, chunked
/// at [`WRITEV_MAX_FRAMES`]; partial writes re-slice from the first
/// unwritten byte. Returns `(bytes written, write batches issued, peer
/// gone)` — a disconnect ends the lane quietly (see [`is_disconnect`]);
/// only local faults surface as errors.
fn drain_lane(w: &mut TcpStream, frames: &[Arc<Vec<u8>>]) -> Result<(u64, u64, bool), FrameError> {
    let mut bytes = 0u64;
    let mut batches = 0u64;
    let mut chunk_start = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len().min(WRITEV_MAX_FRAMES));
    while chunk_start < frames.len() {
        let chunk = &frames[chunk_start..(chunk_start + WRITEV_MAX_FRAMES).min(frames.len())];
        let total: usize = chunk.iter().map(|f| f.len()).sum();
        // (frame index, byte offset) of the first unwritten byte.
        let mut at = (0usize, 0usize);
        let mut written = 0usize;
        while written < total {
            slices.clear();
            slices.push(IoSlice::new(&chunk[at.0][at.1..]));
            for f in &chunk[at.0 + 1..] {
                slices.push(IoSlice::new(f));
            }
            let n = match w.write_vectored(&slices) {
                Ok(0) => return Ok((bytes, batches, true)),
                Ok(n) => n,
                Err(e) if is_disconnect(&e) => return Ok((bytes, batches, true)),
                Err(e) => return Err(FrameError::Io(e)),
            };
            batches += 1;
            written += n;
            // Advance (frame, offset) past the bytes just written.
            let mut rem = n;
            while rem > 0 {
                let avail = chunk[at.0].len() - at.1;
                if rem >= avail {
                    rem -= avail;
                    at = (at.0 + 1, 0);
                } else {
                    at.1 += rem;
                    rem = 0;
                }
            }
        }
        bytes += total as u64;
        chunk_start += chunk.len();
    }
    match w.flush() {
        Ok(()) => Ok((bytes, batches, false)),
        Err(e) if is_disconnect(&e) => Ok((bytes, batches, true)),
        Err(e) => Err(FrameError::Io(e)),
    }
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
