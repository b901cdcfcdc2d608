//! Per-client FIFO delivery and stall isolation under the nonblocking
//! egress fan-out.
//!
//! The replay contract requires that each client observe its messages in
//! the order the server emitted them. `fan_out` queues each client's frames
//! on its lane and writes every lane until its socket would block, so these
//! tests hammer it with interleaved multi-client batches over real loopback
//! sockets and assert that every client reads its own stream back in exact
//! emission order — nothing lost, duplicated, or cross-delivered — and that
//! a client that stops reading holds up neither the call nor the others.

use seve_core::engine::ShareId;
use seve_rt::frame::FrameReader;
use seve_rt::lane::Lane;
use seve_rt::server::{fan_out, RtDown};
use seve_rt::wire::BufferPool;
use seve_world::ids::ClientId;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const FLUSHES: u32 = 16;
const PER_CLIENT_PER_FLUSH: u32 = 8;

/// Tag a payload with its destination and emission sequence so the reader
/// can verify ordering and ownership from the payload alone.
fn payload(client: u16, seq: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(seq)
}

#[test]
fn fan_out_preserves_per_client_fifo_order() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();

    // Connect one reader socket per client and accept the server ends in
    // connection order.
    let mut reader_handles = Vec::new();
    for c in 0..CLIENTS as u16 {
        let stream = TcpStream::connect(addr).expect("connect");
        reader_handles.push(std::thread::spawn(move || {
            let mut reader = FrameReader::new(stream);
            let mut seen: Vec<u64> = Vec::new();
            for _ in 0..(FLUSHES * PER_CLIENT_PER_FLUSH) {
                match reader.read_msg::<RtDown<u64>>().expect("read frame") {
                    RtDown::Msg(v) => seen.push(v),
                    RtDown::Stop => break,
                }
            }
            (c, seen)
        }));
    }
    let mut writers: Vec<Option<Lane>> = Vec::new();
    for _ in 0..CLIENTS {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        writers.push(Some(Lane::new(stream).expect("lane")));
    }

    // Emit interleaved batches: every flush carries messages for all
    // clients, round-robin, while each client's sequence numbers strictly
    // ascend across flushes.
    let mut seqs = [0u32; CLIENTS];
    let mut total_bytes = 0u64;
    let mut pool = BufferPool::new();
    for _ in 0..FLUSHES {
        let mut out: Vec<(ClientId, u64)> = Vec::new();
        for round in 0..PER_CLIENT_PER_FLUSH {
            for c in 0..CLIENTS as u16 {
                // Vary the interleaving pattern between rounds.
                let c = (c + round as u16) % CLIENTS as u16;
                out.push((ClientId(c), payload(c, seqs[c as usize])));
                seqs[c as usize] += 1;
            }
        }
        let (bytes, _batches) = fan_out(&mut writers, &out, |_| None, &mut pool).expect("fan out");
        total_bytes += bytes;
    }
    assert!(total_bytes > 0);
    // Frame buffers recycle across flushes: after warm-up every encode is
    // a pool hit (the steady state allocates nothing).
    assert!(pool.hits() > 0, "expected recycled encode buffers");
    drop(writers); // close the sockets so lagging readers fail loudly

    for h in reader_handles {
        let (c, seen) = h.join().expect("reader thread");
        assert_eq!(
            seen.len(),
            (FLUSHES * PER_CLIENT_PER_FLUSH) as usize,
            "client {c} lost or gained messages"
        );
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(
                *v,
                payload(c, i as u32),
                "client {c} message {i} out of order or misrouted"
            );
        }
    }
}

#[test]
fn fan_out_single_destination_stays_sequential_and_ordered() {
    // One busy destination among idle and unseated ones (the common
    // solicited-reply case) must behave identically.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).expect("connect");
    let (server_end, _) = listener.accept().expect("accept");
    let mut writers = vec![Some(Lane::new(server_end).expect("lane")), None, None];

    let out: Vec<(ClientId, u64)> = (0..32u64).map(|i| (ClientId(0), i)).collect();
    let mut pool = BufferPool::new();
    fan_out(&mut writers, &out, |_| None, &mut pool).expect("fan out");
    drop(writers);

    let mut reader = FrameReader::new(client);
    for i in 0..32u64 {
        match reader.read_msg::<RtDown<u64>>().expect("read frame") {
            RtDown::Msg(v) => assert_eq!(v, i),
            RtDown::Stop => panic!("unexpected stop"),
        }
    }
}

#[test]
fn stalled_destination_does_not_block_other_lanes() {
    // Client 2 stops reading and is shipped far more bytes than loopback
    // socket buffering absorbs. The send must still return promptly, with
    // clients 0 and 1 served, before client 2 reads a byte; what client 2's
    // socket did not take stays queued on its lane, in order, and goes out
    // as later flushes find room.
    const STALL_FRAMES: usize = 8;
    const STALL_FRAME_BYTES: usize = 4 * 1024 * 1024;
    // The send encodes 32 MiB and writes what the sockets take: about
    // 0.6 s in a debug build on a 2-core x86-64 VM. Waiting on client 2
    // would never return, since client 2 reads only after the send.
    const SEND_BOUND: Duration = Duration::from_secs(10);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut clients = Vec::new();
    for _ in 0..3 {
        clients.push(TcpStream::connect(addr).expect("connect"));
    }
    let mut writers: Vec<Option<Lane>> = Vec::new();
    for _ in 0..3 {
        let (stream, _) = listener.accept().expect("accept");
        writers.push(Some(Lane::new(stream).expect("lane")));
    }

    let mut out: Vec<(ClientId, Vec<u8>)> =
        vec![(ClientId(0), vec![0xAA; 64]), (ClientId(1), vec![0xBB; 64])];
    for _ in 0..STALL_FRAMES {
        out.push((ClientId(2), vec![0xCC; STALL_FRAME_BYTES]));
    }

    // Send on another thread, so a send that waits for client 2 fails the
    // bound below instead of hanging the test.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut pool = BufferPool::new();
        let sent = fan_out(&mut writers, &out, |_| None, &mut pool).expect("fan out");
        let _ = done_tx.send((writers, pool, sent));
    });
    let (mut writers, mut pool, (bytes, _batches)) = done_rx
        .recv_timeout(SEND_BOUND)
        .expect("the send returned before the stalled client read anything");
    assert!(
        bytes as usize > STALL_FRAMES * STALL_FRAME_BYTES,
        "every frame is queued, written or not"
    );
    let stalled = writers[2].as_ref().expect("stalled lane");
    assert!(
        !stalled.is_flushed() && !stalled.is_broken(),
        "the stalled lane keeps its unwritten tail"
    );

    for (c, byte) in [(0usize, 0xAAu8), (1, 0xBB)] {
        clients[c]
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut reader = FrameReader::new(clients[c].try_clone().expect("clone"));
        match reader.read_msg::<RtDown<Vec<u8>>>().expect("read frame") {
            RtDown::Msg(v) => assert_eq!(v, vec![byte; 64], "client {c} payload"),
            RtDown::Stop => panic!("unexpected stop"),
        }
    }

    // Only now does client 2 read; flushing its lane as room appears
    // delivers the rest, in order, and hands every buffer back.
    let stalled_client = clients.pop().unwrap();
    let reader = std::thread::spawn(move || {
        let mut reader = FrameReader::new(stalled_client);
        for _ in 0..STALL_FRAMES {
            match reader
                .read_msg::<RtDown<Vec<u8>>>()
                .expect("read stalled frame")
            {
                RtDown::Msg(v) => assert_eq!(v, vec![0xCC; STALL_FRAME_BYTES]),
                RtDown::Stop => panic!("unexpected stop"),
            }
        }
    });
    let lane = writers[2].as_mut().expect("stalled lane");
    let give_up = Instant::now() + Duration::from_secs(60);
    while !lane.is_flushed() {
        assert!(Instant::now() < give_up, "the stalled lane never drained");
        assert!(!lane.is_broken(), "the stalled lane broke");
        lane.flush(&mut pool);
        std::thread::sleep(Duration::from_millis(1));
    }
    reader.join().expect("stalled reader");
    assert_eq!(pool.outstanding(), 0, "every written frame was recycled");
}

#[test]
fn shared_payloads_encode_once_and_reach_every_client() {
    // Broadcast semantics: N copies of the same logical message, keyed to
    // one ShareId, must produce one encode and N byte-identical frames.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut reader_handles = Vec::new();
    for c in 0..CLIENTS as u16 {
        let stream = TcpStream::connect(addr).expect("connect");
        reader_handles.push(std::thread::spawn(move || {
            let mut reader = FrameReader::new(stream);
            let v = match reader.read_msg::<RtDown<u64>>().expect("read frame") {
                RtDown::Msg(v) => v,
                RtDown::Stop => panic!("unexpected stop"),
            };
            (c, v)
        }));
    }
    let mut writers: Vec<Option<Lane>> = Vec::new();
    for _ in 0..CLIENTS {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        writers.push(Some(Lane::new(stream).expect("lane")));
    }

    let out: Vec<(ClientId, u64)> = (0..CLIENTS as u16)
        .map(|c| (ClientId(c), 0xFEED_u64))
        .collect();
    let mut pool = BufferPool::new();
    fan_out(&mut writers, &out, |_| Some(ShareId::Gc(7)), &mut pool).expect("fan out");
    drop(writers);

    // One encode for the whole broadcast: exactly one buffer was drawn
    // from the (empty) pool, and it came back for reuse.
    assert_eq!(pool.misses(), 1, "broadcast should encode exactly once");
    for h in reader_handles {
        let (c, v) = h.join().expect("reader thread");
        assert_eq!(v, 0xFEED, "client {c} got the wrong payload");
    }
}
