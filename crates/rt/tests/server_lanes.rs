//! The TCP server transport's lanes, driven directly over loopback: what a
//! sweep makes of the bytes clients send, and what a client that stops
//! reading can and cannot hold up.

use serde::Serialize;
use seve_core::engine::ShareKey;
use seve_driver::{ServerEvent, ServerTransport, SessionDown};
use seve_rt::frame::{encode_frame_into, FrameReader};
use seve_rt::server::{RtDown, RtUp, StreamServerTransport};
use seve_rt::wire;
use seve_world::ids::ClientId;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const DIGEST: u64 = 0x5EED;

fn token(c: u16) -> u64 {
    1000 + u64::from(c)
}

fn frame(msg: &RtUp<u64>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(msg, &mut buf).expect("encode");
    buf
}

fn hello(c: u16) -> Vec<u8> {
    frame(&RtUp::Hello {
        client: c,
        world_digest: DIGEST,
        token: token(c),
    })
}

/// Connect `n` clients, each having written its hello followed by
/// `extra(c)`, and return them with the transport that seated them all.
fn seat<D>(
    n: u16,
    extra: impl Fn(u16) -> Vec<u8>,
) -> (Vec<TcpStream>, StreamServerTransport<u64, D>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr: SocketAddr = listener.local_addr().unwrap();
    let clients: Vec<TcpStream> = (0..n)
        .map(|c| {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut bytes = hello(c);
            bytes.extend(extra(c));
            s.write_all(&bytes).expect("hello");
            s
        })
        .collect();
    let tokens = (0..n).map(token).collect();
    let transport =
        StreamServerTransport::accept(listener, DIGEST, tokens).expect("seat every client");
    (clients, transport)
}

/// Every event `recv` returns within `window`.
fn events<D: Serialize + ShareKey>(
    t: &mut StreamServerTransport<u64, D>,
    window: Duration,
) -> Vec<ServerEvent<u64>> {
    let end = Instant::now() + window;
    let mut got = Vec::new();
    while let Some(left) = end.checked_duration_since(Instant::now()) {
        match t.recv(left).expect("recv") {
            ServerEvent::Timeout => {}
            e => got.push(e),
        }
    }
    got
}

fn msgs_from(events: &[ServerEvent<u64>], c: u16) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            ServerEvent::Msg(from, m) if *from == ClientId(c) => Some(*m),
            _ => None,
        })
        .collect()
}

fn gones(events: &[ServerEvent<u64>], c: u16) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ServerEvent::Gone(from) if *from == ClientId(c)))
        .count()
}

#[test]
fn frames_written_with_the_hello_are_delivered_in_order() {
    // The hello and two frames leave in one write, so the handshake's read
    // takes all three: the two frames must reach the lane, not vanish with
    // the handshake's buffer.
    let (_clients, mut t) = seat::<SessionDown<u64>>(1, |_| {
        let mut bytes = frame(&RtUp::Msg(7));
        bytes.extend(frame(&RtUp::Msg(8)));
        bytes
    });
    let got = events(&mut t, Duration::from_millis(300));
    assert_eq!(msgs_from(&got, 0), [7, 8]);
    assert_eq!(got.len(), 2, "nothing but the two frames: {got:?}");
}

#[test]
fn hostile_lanes_are_unseated_once_and_the_others_carry_on() {
    let (mut clients, mut t) = seat::<SessionDown<u64>>(4, |_| Vec::new());
    // Client 0: a length prefix past the frame cap.
    let mut oversize = u32::MAX.to_le_bytes().to_vec();
    oversize.extend([0u8; 16]);
    clients[0].write_all(&oversize).unwrap();
    // Client 1: a well-framed payload that decodes as nothing.
    let garbage = [0xFFu8; 3];
    assert!(wire::from_bytes::<RtUp<u64>>(&garbage).is_err());
    let mut undecodable = (garbage.len() as u32).to_le_bytes().to_vec();
    undecodable.extend(garbage);
    clients[1].write_all(&undecodable).unwrap();
    // Client 2: ten bytes of a hundred-byte frame, then it hangs up.
    let mut partial = 100u32.to_le_bytes().to_vec();
    partial.extend([0u8; 10]);
    clients[2].write_all(&partial).unwrap();
    clients[2].shutdown(std::net::Shutdown::Both).unwrap();
    // Client 3: three good frames, in the same sweep as the rest.
    let mut good = Vec::new();
    for v in 1..=3 {
        good.extend(frame(&RtUp::Msg(v)));
    }
    clients[3].write_all(&good).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let got = events(&mut t, Duration::from_millis(500));
    for c in 0..3 {
        assert_eq!(
            gones(&got, c),
            1,
            "client {c} is reported gone once: {got:?}"
        );
        assert!(
            msgs_from(&got, c).is_empty(),
            "client {c} delivered nothing"
        );
    }
    assert_eq!(gones(&got, 3), 0, "client 3 stays seated");
    assert_eq!(msgs_from(&got, 3), [1, 2, 3], "client 3's frames, in order");

    // The unseated lanes' sockets are closed; client 3's still carries.
    for c in &mut clients[..2] {
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match c.read(&mut [0u8; 16]) {
            Ok(n) => assert_eq!(n, 0, "an unseated lane sends nothing"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "an unseated lane is closed, not idle: {e}"
            ),
        }
    }
    clients[3].write_all(&frame(&RtUp::Msg(4))).unwrap();
    let got = events(&mut t, Duration::from_millis(300));
    assert_eq!(msgs_from(&got, 3), [4]);
    assert_eq!(
        got.len(),
        1,
        "no late reports for the unseated lanes: {got:?}"
    );
}

#[test]
fn stop_all_does_not_wait_on_a_stalled_peer() {
    // Client 1 never reads and is sent more than loopback buffering holds.
    // `send_batch` and `stop_all` both return; client 0 still gets its
    // message and the Stop, and the stalled lane's frames go back to the
    // pool when it is retired.
    const STALL_FRAMES: u64 = 8;
    const STALL_FRAME_BYTES: usize = 4 * 1024 * 1024;
    // Encoding the 32 MiB takes about 0.6 s in a debug build on a 2-core
    // x86-64 VM; the flushing that follows is bounded by the transport.
    const BOUND: Duration = Duration::from_secs(10);

    let (clients, mut t) = seat::<SessionDown<Vec<u8>>>(2, |_| Vec::new());
    let mut out = vec![(ClientId(0), SessionDown::Seq(1, vec![0xAA; 64]))];
    for s in 0..STALL_FRAMES {
        out.push((
            ClientId(1),
            SessionDown::Seq(s + 1, vec![0xCC; STALL_FRAME_BYTES]),
        ));
    }
    let started = Instant::now();
    t.send_batch(&out).expect("send");
    t.stop_all().expect("stop");
    assert!(
        started.elapsed() < BOUND,
        "send and stop took {:?}",
        started.elapsed()
    );
    assert_eq!(t.egress_stats().pool_outstanding, 0, "no frame is pinned");

    let mut reader = FrameReader::new(clients[0].try_clone().unwrap());
    match reader.read_msg::<RtDown<SessionDown<Vec<u8>>>>().unwrap() {
        RtDown::Msg(SessionDown::Seq(1, v)) => assert_eq!(v, vec![0xAA; 64]),
        other => panic!("client 0 expected its message, got {other:?}"),
    }
    assert!(matches!(
        reader.read_msg::<RtDown<SessionDown<Vec<u8>>>>().unwrap(),
        RtDown::Stop
    ));
}

#[test]
fn a_waiting_recv_returns_a_frame_long_before_its_timeout() {
    // A `recv` with nothing queued sweeps and naps until its deadline; a
    // frame that arrives meanwhile is returned at the next sweep, not at
    // the deadline.
    let (mut clients, mut t) = seat::<SessionDown<u64>>(1, |_| Vec::new());
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        clients[0].write_all(&frame(&RtUp::Msg(9))).unwrap();
        clients
    });
    let started = Instant::now();
    let got = t.recv(Duration::from_secs(30)).expect("recv");
    assert!(
        matches!(got, ServerEvent::Msg(ClientId(0), 9)),
        "got {got:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "returned after {:?}",
        started.elapsed()
    );
    writer.join().unwrap();
}
