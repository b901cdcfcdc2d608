//! An in-memory duplex stream: the in-process backend's socket.

use crate::lane::Stream;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Bytes each direction holds before a write is short (DESIGN.md §12.2).
const PIPE_CAPACITY: usize = 64 * 1024;

/// Both directions of a pipe, by end: what end `i` wrote and the other
/// has not read, whether end `i` is dropped, and its two settings.
#[derive(Default)]
struct Rings {
    bytes: [VecDeque<u8>; 2],
    closed: [bool; 2],
    nonblocking: [bool; 2],
    read_timeout: [Option<Duration>; 2],
}

/// One end of a pipe, which acts as a socket does: a read returns
/// `WouldBlock` while nothing has arrived and end of stream once the peer
/// is dropped and drained; a write takes what fits, then `WouldBlock`, and
/// `BrokenPipe` once the peer is dropped. It starts blocking, and then a
/// call waits on the condvar.
pub struct Pipe {
    shared: Arc<(Mutex<Rings>, Condvar)>,
    side: usize,
}

/// A connected pair of pipe ends.
pub fn pipe() -> (Pipe, Pipe) {
    let shared = Arc::default();
    let end = |side| Pipe {
        shared: Arc::clone(&shared),
        side,
    };
    (end(0), end(1))
}

impl Pipe {
    fn lock(&self) -> MutexGuard<'_, Rings> {
        self.shared.0.lock().expect("no pipe call panics")
    }

    /// Run `step` on the rings until it yields a result. Until it does, a
    /// nonblocking end returns `WouldBlock`, and a blocking one waits for
    /// the rings to change, a `timed` call at most the read timeout.
    fn io<T>(
        &self,
        timed: bool,
        mut step: impl FnMut(&mut Rings) -> Option<io::Result<T>>,
    ) -> io::Result<T> {
        let (me, peer) = (self.side, 1 - self.side);
        let rings = self.lock();
        let wait = match (rings.nonblocking[me], rings.read_timeout[me]) {
            (true, _) => Duration::ZERO,
            (false, Some(timeout)) if timed => timeout,
            _ => Duration::MAX,
        };
        let mut done = None;
        let waited = self.shared.1.wait_timeout_while(rings, wait, |r| {
            done = step(r);
            done.is_none()
        });
        let (rings, _) = waited.expect("no pipe call panics");
        // A call waits only on a blocking end, and an end makes one call at
        // a time: only a blocking peer can be waiting on this change.
        if done.as_ref().is_some_and(Result::is_ok) && !rings.nonblocking[peer] {
            self.shared.1.notify_all();
        }
        done.unwrap_or_else(|| Err(ErrorKind::WouldBlock.into()))
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let peer = 1 - self.side;
        self.io(true, |r| {
            let ready = buf.is_empty() || !r.bytes[peer].is_empty() || r.closed[peer];
            ready.then(|| r.bytes[peer].read(buf))
        })
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.io(false, |r| {
            if r.closed[1 - self.side] {
                return Some(Err(ErrorKind::BrokenPipe.into()));
            }
            let n = buf.len().min(PIPE_CAPACITY - r.bytes[self.side].len());
            r.bytes[self.side].extend(&buf[..n]);
            (n > 0 || buf.is_empty()).then_some(Ok(n))
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Pipe {
    /// The peer reads what is left, then end of stream; its writes fail.
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        let mut rings = lock.lock().unwrap_or_else(PoisonError::into_inner);
        rings.closed[self.side] = true;
        cv.notify_all();
    }
}

/// A listener is a `Receiver` of pipe ends, and the `Sender` of its
/// channel dials it: each dial queues one end of a fresh pipe, and is
/// refused once the listener is dropped, as a closed port refuses.
impl Stream for Pipe {
    type Listener = Receiver<Pipe>;
    type Addr = Sender<Pipe>;

    fn accept(listener: &Receiver<Pipe>) -> io::Result<Pipe> {
        listener.try_recv().or(Err(ErrorKind::WouldBlock.into()))
    }

    fn dial(addr: &Sender<Pipe>) -> io::Result<Pipe> {
        let (ours, theirs) = pipe();
        addr.send(theirs).or(Err(ErrorKind::ConnectionRefused))?;
        Ok(ours)
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.lock().nonblocking[self.side] = on;
        Ok(())
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.lock().read_timeout[self.side] = timeout;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BufferPool;
    use crate::Lane;
    use std::sync::mpsc;
    use std::time::Instant;

    fn kind<T>(r: io::Result<T>) -> ErrorKind {
        r.err().expect("the call fails").kind()
    }

    fn nonblocking_pair() -> (Pipe, Pipe) {
        let (a, b) = pipe();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn an_empty_ring_would_block() {
        let (mut a, mut b) = nonblocking_pair();
        assert_eq!(kind(a.read(&mut [0; 8])), ErrorKind::WouldBlock);
        b.write_all(b"hey").unwrap();
        let mut buf = [0; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"hey");
        assert_eq!(kind(a.read(&mut buf)), ErrorKind::WouldBlock);
    }

    #[test]
    fn a_full_ring_takes_a_short_write_then_would_block() {
        let (mut a, mut b) = nonblocking_pair();
        assert_eq!(
            a.write(&vec![7; PIPE_CAPACITY - 4]).unwrap(),
            PIPE_CAPACITY - 4
        );
        assert_eq!(a.write(&[1, 2, 3, 4, 5, 6]).unwrap(), 4, "short write");
        assert_eq!(kind(a.write(&[3])), ErrorKind::WouldBlock);
        // Reading makes room again, and the bytes arrive in order.
        let mut got = vec![0; 2 * PIPE_CAPACITY];
        assert_eq!(b.read(&mut got).unwrap(), PIPE_CAPACITY);
        assert_eq!(&got[PIPE_CAPACITY - 5..PIPE_CAPACITY], &[7, 1, 2, 3, 4]);
        assert_eq!(a.write(&[5, 6]).unwrap(), 2);
    }

    #[test]
    fn a_dropped_peer_reads_as_end_of_stream_and_breaks_writes() {
        let (mut a, mut b) = nonblocking_pair();
        b.write_all(b"last words").unwrap();
        drop(b);
        let mut buf = [0; 32];
        assert_eq!(a.read(&mut buf).unwrap(), 10, "what was sent arrives");
        assert_eq!(a.read(&mut buf).unwrap(), 0, "then end of stream");
        assert_eq!(kind(a.write(b"x")), ErrorKind::BrokenPipe);
    }

    #[test]
    fn a_blocking_read_returns_at_its_timeout() {
        let (mut a, _b) = pipe();
        a.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let start = Instant::now();
        assert_eq!(kind(a.read(&mut [0; 4])), ErrorKind::WouldBlock);
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn a_blocking_flush_ends_once_the_peer_drops() {
        // The client's closing flush blocks on its lane's pipe: it must
        // end, not hang, once the server's end is gone.
        let (a, b) = pipe();
        let mut lane = Lane::new(a).unwrap();
        lane.push(Arc::new(vec![0; 2 * PIPE_CAPACITY]));
        lane.stream().set_nonblocking(false).unwrap();
        let closer = std::thread::spawn(move || {
            // Drop the server's end only once the flush has filled the ring.
            while b.lock().bytes[0].len() < PIPE_CAPACITY {
                std::thread::yield_now();
            }
            drop(b);
        });
        lane.flush(&mut BufferPool::new());
        assert!(lane.is_broken() && !lane.is_flushed());
        closer.join().unwrap();
    }

    #[test]
    fn a_dial_reaches_the_listener_until_it_is_dropped() {
        let (dialer, listener) = mpsc::channel::<Pipe>();
        assert_eq!(kind(Pipe::accept(&listener)), ErrorKind::WouldBlock);
        let mut ours = Pipe::dial(&dialer).unwrap();
        let mut theirs = Pipe::accept(&listener).unwrap();
        ours.write_all(b"hello").unwrap();
        let mut buf = [0; 5];
        theirs.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        drop(listener);
        assert_eq!(kind(Pipe::dial(&dialer)), ErrorKind::ConnectionRefused);
    }
}
