//! The TCP client drives its socket from the calling thread: connecting
//! and reconnecting start no thread. A test binary of its own, with one
//! test, so that no other test's threads enter the count.
#![cfg(target_os = "linux")]

use seve_driver::ClientTransport;
use seve_rt::StreamClientTransport;
use seve_world::ids::ClientId;
use std::net::TcpListener;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn connect_and_reconnect_start_no_thread() {
    // A bare listener: `connect` completes from its backlog and the hello
    // fits in the socket buffer, so no server thread enters the count.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let before = threads();
    let mut t =
        StreamClientTransport::<u64, u64>::connect(addr, ClientId(0), 1, 2).expect("connect");
    assert_eq!(threads(), before, "connect started a thread");
    t.reconnect().expect("reconnect");
    assert_eq!(threads(), before, "reconnect started a thread");
}
