//! The nonblocking lane: one stream's framed traffic, driven by the thread
//! that owns it. The server holds one [`Lane`] per seated client, the
//! client one for its link to the server. A lane deals in frames, not
//! messages: it queues whole outbound frames and hands each whole inbound
//! payload to its caller, which decodes it (`RtUp` on the server, `RtDown`
//! on the client).

use crate::frame::{encode_frame_into, FrameError, MAX_FRAME};
use crate::wire::BufferPool;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coalescing threshold: the most frames handed to one `write_vectored`
/// call. Past this the syscall savings are already banked and the iovec
/// itself starts costing.
const WRITEV_MAX_FRAMES: usize = 64;

/// Initial size of a lane's inbound buffer; it doubles only when one
/// frame does not fit.
const INBOUND_CHUNK: usize = 8 * 1024;

/// Most reads one [`Lane::read`] spends, so a peer that never stops
/// sending cannot keep a sweep from reaching the other lanes.
const READS_PER_SWEEP: usize = 16;

/// Longest a transport waiting on its lanes sleeps between two sweeps
/// while nothing is queued. std has no readiness wait (and this crate
/// forbids `unsafe`), so this bounds the delay a transport adds to a frame
/// that arrives while it waits.
const IDLE_NAP: Duration = Duration::from_micros(200);

/// What a lane's stream — a `TcpStream` or a [`crate::pipe::Pipe`] end —
/// needs beyond `Read + Write`.
pub trait Stream: Read + Write + Send + Sized + 'static {
    /// What a server accepts these streams on.
    type Listener: Send + 'static;
    /// What a client dials to open one.
    type Addr: Send;
    /// Make [`Stream::accept`] return `WouldBlock`, not wait (default: no-op).
    fn listen(_listener: &Self::Listener) -> io::Result<()> {
        Ok(())
    }
    /// The next connection on `listener`, as a blocking stream.
    fn accept(listener: &Self::Listener) -> io::Result<Self>;
    /// A new connection to `addr`, as a blocking stream.
    fn dial(addr: &Self::Addr) -> io::Result<Self>;
    /// Make reads and writes return `WouldBlock` instead of waiting.
    fn set_nonblocking(&self, on: bool) -> io::Result<()>;
    /// Bound how long a blocking read waits.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Stream for TcpStream {
    type Listener = TcpListener;
    type Addr = SocketAddr;

    fn listen(listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)
    }

    fn accept(listener: &TcpListener) -> io::Result<Self> {
        let (stream, _peer) = listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn dial(addr: &SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, on)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

/// Poll until `poll` yields an event or `timeout` passes, napping at most
/// [`IDLE_NAP`] between polls.
pub(crate) fn wait<E>(timeout: Duration, mut poll: impl FnMut() -> Option<E>) -> Option<E> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(e) = poll() {
            return Some(e);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        std::thread::sleep(left.min(IDLE_NAP));
    }
}

/// Frame `msg` into a buffer from `pool`, ready to queue on lanes. A
/// failed encode hands the buffer straight back, so it does not count as a
/// leaked allocation.
pub(crate) fn encode<T: Serialize>(
    msg: &T,
    pool: &mut BufferPool,
) -> Result<Arc<Vec<u8>>, FrameError> {
    let mut buf = pool.take();
    match encode_frame_into(msg, &mut buf) {
        Ok(()) => Ok(Arc::new(buf)),
        Err(e) => {
            pool.put(buf);
            Err(e)
        }
    }
}

/// Hand a frame reference back: the last holder returns the buffer to
/// `pool`, so a frame shared by several lanes is recycled exactly once.
pub(crate) fn recycle(frame: Arc<Vec<u8>>, pool: &mut BufferPool) {
    if let Ok(buf) = Arc::try_unwrap(frame) {
        pool.put(buf);
    }
}

/// One nonblocking stream and its buffers.
///
/// Outbound, a lane is a FIFO of whole frames (its *tail*) of which the
/// front may be partly written: frames are only ever appended, and
/// [`Lane::flush`] writes from the front until the stream would block, so
/// the peer reads its frames in the order they were queued and a peer that
/// stops reading holds up nothing but its own tail. Inbound, a lane
/// accumulates bytes until a whole length-prefixed frame is present.
pub struct Lane<S = TcpStream> {
    stream: S,
    /// Inbound bytes: `inbound[start..end]` has been read and not yet
    /// parsed. The whole vector stays initialized, so a read never zeroes
    /// it again.
    inbound: Vec<u8>,
    start: usize,
    end: usize,
    /// Frames queued for the peer and not yet fully written, oldest first;
    /// the first `written` bytes of the front frame are on the wire.
    tail: VecDeque<Arc<Vec<u8>>>,
    written: usize,
    /// The peer closed, a read or write failed, or the peer sent a frame
    /// it cannot have meant: the lane takes no further traffic.
    broken: bool,
}

impl<S: Stream> Lane<S> {
    /// Own `stream` as a lane, switching it to nonblocking mode.
    pub fn new(stream: S) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(Self::with_inbound(stream, Vec::new()))
    }
}

impl<S: Read + Write> Lane<S> {
    /// Own `stream`, already nonblocking, as a lane whose inbound stream
    /// starts with `leftover`: bytes already read from it, past a
    /// handshake say.
    pub(crate) fn with_inbound(stream: S, leftover: Vec<u8>) -> Self {
        let end = leftover.len();
        let mut inbound = leftover;
        inbound.resize(end.max(INBOUND_CHUNK), 0);
        Self {
            stream,
            inbound,
            start: 0,
            end,
            tail: VecDeque::new(),
            written: 0,
            broken: false,
        }
    }

    /// The stream the lane drives.
    pub(crate) fn stream(&self) -> &S {
        &self.stream
    }

    /// Has every queued frame been written?
    pub fn is_flushed(&self) -> bool {
        self.tail.is_empty()
    }

    /// Has the lane failed (see [`Lane`]) and stopped taking traffic?
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Queue `frame` behind the frames already queued.
    pub(crate) fn push(&mut self, frame: Arc<Vec<u8>>) {
        self.tail.push_back(frame);
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

    /// Hand every whole frame in the inbound buffer to `deliver`.
    fn parse(&mut self, deliver: &mut impl FnMut(&[u8]) -> bool) {
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
            if !deliver(payload) {
                self.broken = true;
                break;
            }
            self.start += 4 + len;
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Close the stream and hand every queued frame back to `pool`.
    pub fn retire(mut self, pool: &mut BufferPool) {
        for frame in self.tail.drain(..) {
            recycle(frame, pool);
        }
    }

    /// Write queued frames through `write_vectored`, at most
    /// `WRITEV_MAX_FRAMES` per call, until the tail is empty or the
    /// stream would block. A partial write leaves the rest of its frame at
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

    /// Read what the peer has sent, until the stream would block, and hand
    /// each whole frame's payload to `deliver`, which returns whether it
    /// decoded. End of stream, a read error, a length prefix past
    /// [`MAX_FRAME`] or a payload `deliver` refuses breaks the lane; the
    /// frames before it are still delivered.
    pub(crate) fn read(&mut self, mut deliver: impl FnMut(&[u8]) -> bool) {
        self.parse(&mut deliver);
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
                    self.parse(&mut deliver);
                    if n < room {
                        // A short read drained the stream.
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod scripted;
