//! A seeded stand-in for a nonblocking socket, and the checks every caller
//! of a [`Lane`] must pass over it.
//!
//! Over loopback TCP the kernel decides when a write is short or a read
//! splits a frame. Here a seed does: every read and write moves a random
//! number of bytes, from 1 up, with `WouldBlock` and `Interrupted`
//! interleaved, and the inbound script may end in end-of-stream or an error
//! in the middle of a frame, or carry a frame no peer can have meant.

use super::Lane;
use crate::frame::encode_frame_into;
use crate::wire::BufferPool;
use std::cell::{Cell, RefCell};
use std::io::{self, IoSlice, Read, Write};
use std::rc::Rc;

/// splitmix64: a seeded, well-mixed stream of `u64`s.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A byte count from 1 to 16 KiB, roughly log-uniform: mostly a few
    /// bytes, now and then more than a whole frame.
    fn count(&mut self) -> usize {
        let bits = self.below(15);
        1 + self.below(1 << bits) as usize
    }
}

/// How a script's inbound bytes end.
#[derive(Clone, Copy, Debug, PartialEq)]
enum End {
    /// The peer stays connected and sends nothing more.
    Open,
    /// End of stream.
    Eof,
    /// A read error.
    Reset,
}

/// A stream that plays a fixed inbound script and records what is written
/// to it, moving a seeded random number of bytes per call.
pub(crate) struct ScriptedStream {
    rng: SplitMix64,
    inbound: Vec<u8>,
    read: usize,
    end: End,
    /// What the peer has taken; shared, so the test still sees it after
    /// the lane closes the stream.
    written: Rc<RefCell<Vec<u8>>>,
    /// Writes fail once the peer has taken this many bytes.
    write_limit: usize,
    /// Like a socket's: only a nonblocking stream returns `WouldBlock`.
    nonblocking: Cell<bool>,
}

impl ScriptedStream {
    pub(crate) fn set_nonblocking(&self, on: bool) {
        self.nonblocking.set(on);
    }

    /// `Interrupted` or, when nonblocking, `WouldBlock`, now and then.
    fn hiccup(&mut self) -> io::Result<()> {
        match self.rng.below(8) {
            0 => Err(io::ErrorKind::Interrupted.into()),
            1 if self.nonblocking.get() => Err(io::ErrorKind::WouldBlock.into()),
            _ => Ok(()),
        }
    }
}

impl Read for ScriptedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            // As a socket does.
            return Ok(0);
        }
        self.hiccup()?;
        let left = &self.inbound[self.read..];
        if left.is_empty() {
            return match self.end {
                End::Open => Err(io::ErrorKind::WouldBlock.into()),
                End::Eof => Ok(0),
                End::Reset => Err(io::ErrorKind::ConnectionReset.into()),
            };
        }
        let n = self.rng.count().min(left.len()).min(buf.len());
        buf[..n].copy_from_slice(&left[..n]);
        self.read += n;
        Ok(n)
    }
}

impl Write for ScriptedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// Takes bytes across slice boundaries, as `writev` does.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        self.hiccup()?;
        let mut written = self.written.borrow_mut();
        if written.len() >= self.write_limit {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = self
            .rng
            .count()
            .min(total)
            .min(self.write_limit - written.len());
        let mut left = n;
        for b in bufs {
            let k = left.min(b.len());
            written.extend_from_slice(&b[..k]);
            left -= k;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Seeds each caller's default test runs: about 0.3 s of a debug build.
pub(crate) const SEEDS: u64 = 2_000;

/// Seeds each caller's `#[ignore]`d test runs, in `scripts/verify.sh
/// --chaos`.
pub(crate) const SCALE_SEEDS: u64 = 100_000;

/// `msg` as one frame.
pub(crate) fn frame_of<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(msg, &mut buf).expect("encode");
    buf
}

/// A well-framed payload no envelope decodes from.
pub(crate) const UNDECODABLE: [u8; 3] = [0xFF; 3];

/// What a lane's caller reported, in a form both callers share.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Got {
    /// A message, by payload.
    Msg(Vec<u8>),
    /// The client's goodbye.
    Done,
    /// The server's stop.
    Stop,
    /// The lane broke: `Gone` on the server, `Closed` on the client.
    Broke,
}

/// A payload: mostly short, one in 64 longer than a lane's first
/// inbound buffer, so that `make_room` must grow it.
pub(crate) fn payload(rng: &mut SplitMix64) -> Vec<u8> {
    let len = if rng.below(64) == 0 {
        8 * 1024 + rng.below(8 * 1024)
    } else {
        rng.below(64)
    };
    (0..len).map(|_| rng.next() as u8).collect()
}

/// One caller of a lane, driven over scripted streams. It sends
/// payloads to its peer, each as one frame of its envelope.
pub(crate) trait Caller {
    /// Bytes that must reach the stream before the inbound frames: the
    /// hello the server's handshake reads.
    fn hello(&self) -> Vec<u8>;
    /// A random frame the peer may send, and the event it must become
    /// (`None`: the caller ignores it).
    fn inbound(&self, rng: &mut SplitMix64) -> (Vec<u8>, Option<Got>);
    /// The caller's lane over `stream`, which is still blocking.
    fn open(&self, stream: ScriptedStream) -> Lane<ScriptedStream>;
    /// The frame the peer must see for `payload`.
    fn frame(&self, payload: &[u8]) -> Vec<u8>;
    /// Queue `batch` for the peer, as the caller's transport does.
    fn send(
        &self,
        lane: &mut Option<Lane<ScriptedStream>>,
        batch: &[Vec<u8>],
        pool: &mut BufferPool,
    );
    /// One `recv` pass over the lane: every event it reports, in order.
    fn pump(
        &self,
        lane: &mut Option<Lane<ScriptedStream>>,
        got: &mut Vec<Got>,
        pool: &mut BufferPool,
    );
}

/// Names the seed of a check that panics, also where the panic is the
/// lane's own (an index or an overflow) and not one of the checks'.
struct NameOnPanic(u64);

impl Drop for NameOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("scripted stream: seed {} failed", self.0);
        }
    }
}

/// Most passes one seed may take: far more than any script needs, so a
/// lane that stops making progress fails the check instead of hanging it.
const MAX_STEPS: usize = 100_000;

/// Run `caller` over seed `seed`'s script and check it.
///
/// The peer sends up to eight frames and the caller up to eight payloads,
/// all drawn from the seed. The script is one of five: the peer stays
/// open; it closes after the last frame; its stream ends or fails at a
/// random byte; a frame no peer can have meant follows a random frame; or
/// the peer stops taking writes at a random byte. Checked:
///
/// - the peer sees exactly the frames queued for it, concatenated — a
///   prefix of them when the lane broke;
/// - the events are the sent frames' events, in order, up to the break —
///   all of them unless a write broke the lane first;
/// - a lane that must break reports it exactly once, and one that must not
///   never does;
/// - `pool.outstanding() == 0` once the lane is retired.
pub(crate) fn check_seed(caller: &impl Caller, seed: u64) {
    let _named = NameOnPanic(seed);
    let mut rng = SplitMix64::new(seed);
    let inbound: Vec<_> = (0..rng.below(9))
        .map(|_| caller.inbound(&mut rng))
        .collect();
    let outbound: Vec<_> = (0..rng.below(9)).map(|_| payload(&mut rng)).collect();
    let out: usize = outbound.iter().map(|m| caller.frame(m).len()).sum();
    let mut bytes = caller.hello();
    let (mut end, mut write_limit) = (End::Open, usize::MAX);
    // With nothing to write, a write cannot break the lane.
    let kind = match rng.below(5) {
        4 if out == 0 => 0,
        k => k,
    };
    let whole = match kind {
        0 | 1 | 4 => inbound.len(),
        _ => rng.below(inbound.len() as u64 + 1) as usize,
    };
    for (frame, _) in &inbound[..whole] {
        bytes.extend_from_slice(frame);
    }
    match kind {
        1 => end = End::Eof,
        2 => {
            // Part of the next frame, then end of stream or a reset.
            if let Some((frame, _)) = inbound.get(whole) {
                bytes.extend_from_slice(&frame[..rng.below(frame.len() as u64) as usize]);
            }
            end = if rng.below(2) == 0 {
                End::Eof
            } else {
                End::Reset
            };
        }
        3 => {
            // An oversize length prefix, or a well-framed payload that
            // decodes as nothing.
            if rng.below(2) == 0 {
                bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            } else {
                bytes.extend_from_slice(&3u32.to_le_bytes());
                bytes.extend_from_slice(&UNDECODABLE);
            }
        }
        4 => write_limit = rng.below(out as u64) as usize,
        _ => {}
    }
    let must_break = kind != 0;
    let expected: Vec<Got> = inbound[..whole]
        .iter()
        .filter_map(|(_, g)| g.clone())
        .collect();

    let written = Rc::new(RefCell::new(Vec::new()));
    let stream = ScriptedStream {
        rng: SplitMix64::new(rng.next()),
        inbound: bytes,
        read: 0,
        end,
        written: Rc::clone(&written),
        write_limit,
        nonblocking: Cell::new(false),
    };
    let mut lane = Some(caller.open(stream));
    let mut pool = BufferPool::new();
    let mut queued: Vec<u8> = Vec::new();
    let mut got: Vec<Got> = Vec::new();
    let mut outbound = outbound.into_iter().peekable();
    let mut steps = 0;
    loop {
        steps += 1;
        assert!(steps < MAX_STEPS, "seed {seed}: the script never finished");
        if outbound.peek().is_some() && rng.below(4) == 0 {
            let k = 1 + rng.below(3);
            let batch: Vec<Vec<u8>> = outbound.by_ref().take(k as usize).collect();
            if lane.as_ref().is_some_and(|l| !l.is_broken()) {
                for m in &batch {
                    queued.extend(caller.frame(m));
                }
            }
            caller.send(&mut lane, &batch, &mut pool);
        }
        caller.pump(&mut lane, &mut got, &mut pool);
        let Some(l) = &lane else { break };
        let all_in = got.len() == expected.len();
        if !must_break && all_in && outbound.peek().is_none() && l.is_flushed() {
            break;
        }
    }
    if let Some(l) = lane.take() {
        l.retire(&mut pool);
    }

    let written = written.borrow();
    assert!(
        queued.starts_with(&written),
        "seed {seed}: the peer saw bytes that were not queued, or out of order"
    );
    if !must_break {
        assert_eq!(written.len(), queued.len(), "seed {seed}: frames lost");
    }
    let breaks = got.iter().filter(|g| **g == Got::Broke).count();
    assert_eq!(breaks, usize::from(must_break), "seed {seed}: {got:?}");
    if must_break {
        assert_eq!(got.last(), Some(&Got::Broke), "seed {seed}: {got:?}");
    }
    let parsed = &got[..got.len() - breaks];
    assert!(
        expected.starts_with(parsed),
        "seed {seed} (script {kind}): parsed {parsed:?}, sent {expected:?}"
    );
    if kind != 4 {
        assert_eq!(parsed.len(), expected.len(), "seed {seed}: frames lost");
    }
    assert_eq!(pool.outstanding(), 0, "seed {seed}: a frame is pinned");
}
