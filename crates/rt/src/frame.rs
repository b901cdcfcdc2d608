//! Length-prefixed framing over a byte stream.
//!
//! Each frame is a `u32` little-endian payload length followed by the
//! payload (a [`crate::wire`]-encoded message). Frames are capped to keep a
//! corrupted length prefix from allocating the moon.

use crate::wire::{self, WireError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Read, Write};

/// Maximum accepted frame payload, bytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Framing / transport errors.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(io::Error),
    /// Payload failed to encode/decode.
    Codec(WireError),
    /// A frame length exceeded [`MAX_FRAME`].
    Oversize(usize),
    /// The peer closed the connection.
    Closed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Codec(e) => write!(f, "{e}"),
            FrameError::Oversize(n) => write!(f, "frame of {n} bytes exceeds cap"),
            FrameError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Codec(e)
    }
}

/// Encode one message as a complete frame — length prefix and payload in
/// one contiguous buffer — appending to `buf` (typically a recycled
/// [`wire::BufferPool`] buffer). The 4-byte prefix slot is reserved up
/// front and back-patched once the payload length is known, so the value
/// is serialized exactly once with no intermediate allocation.
pub fn encode_frame_into<T: Serialize>(msg: &T, buf: &mut Vec<u8>) -> Result<(), FrameError> {
    let frame_start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    wire::to_bytes_into(msg, buf)?;
    let payload_len = buf.len() - frame_start - 4;
    if payload_len > MAX_FRAME {
        buf.truncate(frame_start);
        return Err(FrameError::Oversize(payload_len));
    }
    buf[frame_start..frame_start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Write one message as a frame. Returns the frame's size on the wire.
pub fn write_msg<T: Serialize>(stream: &mut impl Write, msg: &T) -> Result<usize, FrameError> {
    let mut frame = Vec::new();
    encode_frame_into(msg, &mut frame)?;
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(frame.len())
}

/// A buffered frame reader over a blocking stream.
pub struct FrameReader<S> {
    stream: S,
    /// Unconsumed bytes; `start` indexes the first live byte so each frame
    /// doesn't shift the whole buffer.
    buf: Vec<u8>,
    start: usize,
}

impl<S: Read> FrameReader<S> {
    /// Wrap a stream.
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(8 * 1024),
            start: 0,
        }
    }

    /// Unwrap the stream, with the bytes read from it and not yet
    /// returned as a message (the start of the next frame, or several).
    pub fn into_parts(mut self) -> (S, Vec<u8>) {
        self.buf.drain(..self.start);
        (self.stream, self.buf)
    }

    fn buffered(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        // Reclaim space once the dead prefix dominates the buffer.
        if self.start > 8 * 1024 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Read the next message, blocking. `Err(Closed)` on orderly shutdown.
    pub fn read_msg<T: DeserializeOwned>(&mut self) -> Result<T, FrameError> {
        loop {
            if self.buffered().len() >= 4 {
                let len =
                    u32::from_le_bytes(self.buffered()[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME {
                    return Err(FrameError::Oversize(len));
                }
                if self.buffered().len() >= 4 + len {
                    let msg = wire::from_bytes(&self.buffered()[4..4 + len])?;
                    self.consume(4 + len);
                    return Ok(msg);
                }
            }
            let mut chunk = [0u8; 8 * 1024];
            let n = match self.stream.read(&mut chunk) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                r => r?,
            };
            if n == 0 {
                return Err(FrameError::Closed);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn frames_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_msg(&mut s, &("hello".to_string(), 42u32)).unwrap();
            write_msg(&mut s, &vec![1u8, 2, 3]).unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(conn);
        let (greeting, n): (String, u32) = reader.read_msg().unwrap();
        assert_eq!((greeting.as_str(), n), ("hello", 42));
        let v: Vec<u8> = reader.read_msg().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        // Orderly close surfaces as Closed.
        sender.join().unwrap();
        let end = reader.read_msg::<u8>().unwrap_err();
        assert!(matches!(end, FrameError::Closed));
    }

    #[test]
    fn encoded_frames_match_the_streamed_layout() {
        let msg = ("hello".to_string(), 42u32);
        let mut frame = Vec::new();
        encode_frame_into(&msg, &mut frame).unwrap();
        let payload = wire::to_bytes(&msg).unwrap();
        assert_eq!(&frame[..4], &(payload.len() as u32).to_le_bytes());
        assert_eq!(&frame[4..], &payload[..]);
        // Appending a second frame leaves the first untouched.
        encode_frame_into(&7u8, &mut frame).unwrap();
        assert_eq!(&frame[4..4 + payload.len()], &payload[..]);
    }

    #[test]
    fn oversize_frames_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A forged oversize length prefix.
            s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
            s.write_all(&[0u8; 16]).unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(conn);
        let err = reader.read_msg::<u8>().unwrap_err();
        assert!(matches!(err, FrameError::Oversize(_)));
        sender.join().unwrap();
    }
}
