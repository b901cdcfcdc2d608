//! What the TCP client owes its server when it takes the link down: every
//! frame `send` accepted is written first, even past what the socket
//! buffers hold. Up-lane frames have no resend.

use seve_driver::ClientTransport;
use seve_rt::frame::FrameReader;
use seve_rt::server::RtUp;
use seve_rt::StreamClientTransport;
use seve_world::ids::ClientId;
use std::net::TcpListener;
use std::sync::mpsc;

#[test]
fn frames_sent_before_the_drop_all_reach_the_server() {
    // 32 MiB: far more than a loopback socket's send and receive buffers
    // take from a peer that is not reading, so most of it is still queued
    // in the client when it is dropped.
    const FRAMES: usize = 16;
    const FRAME_BYTES: usize = 2 * 1024 * 1024;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut t =
        StreamClientTransport::<String, u64>::connect(addr, ClientId(0), 1, 2).expect("connect");
    for i in 0..FRAMES {
        t.send(format!("{i:02}").repeat(FRAME_BYTES / 2))
            .expect("send");
    }
    let (go, reading) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let (conn, _) = listener.accept().expect("accept");
        reading.recv().expect("the client is about to drop");
        let mut reader = FrameReader::new(conn);
        let mut got = Vec::new();
        while let Ok(m) = reader.read_msg::<RtUp<String>>() {
            got.push(m);
        }
        got
    });
    go.send(()).unwrap();
    drop(t);
    let got = server.join().expect("server");
    assert!(matches!(got[0], RtUp::Hello { client: 0, .. }));
    assert_eq!(got.len(), 1 + FRAMES, "every frame arrives, then the close");
    for (i, m) in got[1..].iter().enumerate() {
        let RtUp::Msg(s) = m else {
            panic!("frame {i} is {m:?}")
        };
        assert_eq!(*s, format!("{i:02}").repeat(FRAME_BYTES / 2), "frame {i}");
    }
}
