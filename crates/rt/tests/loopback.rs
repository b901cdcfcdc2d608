//! End-to-end SEVE session over real TCP loopback: the paper's "real
//! experiments" counterpart. One server thread, four client threads, the
//! Manhattan People workload, and the same Theorem 1 consistency oracle
//! the simulator applies.

use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::consistency::ConsistencyOracle;
use seve_core::pipeline::PipelineServer;
use seve_driver::{FaultPlan, SessionParams};
use seve_rt::{hello_digest, run_client_with, run_server_with};
use seve_world::ids::ClientId;
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn world(clients: usize) -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        width: 200.0,
        height: 200.0,
        walls: 100,
        clients,
        spawn: SpawnPattern::Grid { spacing: 8.0 },
        seed: 77,
        ..ManhattanConfig::default()
    }))
}

fn fast_cfg(mode: ServerMode) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::with_mode(mode);
    // Loopback has microsecond RTTs; scale the cycles down so the session
    // finishes quickly while the protocol structure is identical.
    cfg.rtt = seve_net::time::SimDuration::from_ms(20);
    cfg.tick = seve_net::time::SimDuration::from_ms(5);
    cfg
}

fn run_session(mode: ServerMode) {
    const N: usize = 4;
    const MOVES: u32 = 12;
    let w = world(N);
    let cfg = fast_cfg(mode);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();

    let server_world = Arc::clone(&w);
    let server_cfg = cfg.clone();
    let digest = hello_digest(w.as_ref(), &cfg);
    let server = std::thread::spawn(move || {
        run_server_with(
            PipelineServer::new(server_world, server_cfg),
            listener,
            N,
            Duration::from_millis(5),
            Duration::from_millis(5),
            digest,
            SessionParams::default(),
        )
        .expect("server runs")
    });

    let mut client_handles = Vec::new();
    for i in 0..N {
        let w = Arc::clone(&w);
        let cfg = cfg.clone();
        client_handles.push(std::thread::spawn(move || {
            let mut wl = ManhattanWorkload::new(&w);
            run_client_with(
                Arc::clone(&w),
                &cfg,
                addr,
                ClientId(i as u16),
                &mut wl,
                MOVES,
                Duration::from_millis(25),
                &FaultPlan::none(),
                SessionParams::default(),
            )
            .expect("client runs")
        }));
    }

    let mut oracle = ConsistencyOracle::new();
    let mut responses = 0usize;
    for h in client_handles {
        let mut report = h.join().expect("client thread");
        responses += report.metrics.response_ms.count();
        assert_eq!(report.metrics.replay_divergences, 0);
        for rec in report.metrics.take_eval_records() {
            oracle.observe(&rec);
        }
    }
    let server_report = server.join().expect("server thread");

    assert!(
        oracle.is_consistent(),
        "Theorem 1 must hold over real sockets: {:?}",
        oracle.violations().first()
    );
    assert!(
        responses >= N * (MOVES as usize) * 9 / 10,
        "most moves must get stable responses, got {responses}"
    );
    assert!(server_report.metrics.installed > 0, "completions installed");
    assert!(server_report.bytes_out > 0);
}

#[test]
fn incomplete_world_over_tcp_is_consistent() {
    run_session(ServerMode::Incomplete);
}

#[test]
fn info_bound_over_tcp_is_consistent() {
    run_session(ServerMode::InfoBound);
}

/// A client in another mode than its server's speaks another protocol (a
/// Basic client sends an Information Bound server no completions, and ζ_S
/// would stall), so its hello is refused at the door, as a client of
/// another world's is: its connection is closed before a move is served,
/// and the client ends with no response. Its seat stays free for a client
/// of the server's mode.
#[test]
fn a_client_in_another_mode_is_refused_at_the_door() {
    const MOVES: u32 = 6;
    let w = world(1);
    let cfg = fast_cfg(ServerMode::InfoBound);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = {
        let (w, cfg) = (Arc::clone(&w), cfg.clone());
        let digest = hello_digest(w.as_ref(), &cfg);
        std::thread::spawn(move || {
            run_server_with(
                PipelineServer::new(w, cfg),
                listener,
                1,
                Duration::from_millis(5),
                Duration::from_millis(5),
                digest,
                SessionParams::fast(),
            )
            .expect("server runs")
        })
    };
    let client = |cfg: ProtocolConfig| {
        let (tx, rx) = std::sync::mpsc::channel();
        let w = Arc::clone(&w);
        let handle = std::thread::spawn(move || {
            let mut wl = ManhattanWorkload::new(&w);
            let report = run_client_with(
                Arc::clone(&w),
                &cfg,
                addr,
                ClientId(0),
                &mut wl,
                MOVES,
                Duration::from_millis(25),
                &FaultPlan::none(),
                SessionParams::fast(),
            );
            let responses = report.map(|r| r.metrics.response_ms.count());
            tx.send(responses.map_err(|e| e.to_string()))
                .expect("the test waits");
        });
        let responses = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the client returns");
        handle.join().expect("client thread");
        responses
    };
    assert_eq!(
        client(fast_cfg(ServerMode::Basic)).unwrap_or(0),
        0,
        "a Basic client was served by an Information Bound server"
    );
    let responses = client(cfg).expect("a client of the server's mode is seated");
    assert!(responses > 0);
    let report = server.join().expect("server thread");
    assert!(report.metrics.installed > 0, "completions installed");
}

#[test]
fn wire_roundtrips_a_real_move_action() {
    let w = world(3);
    let mut wl = ManhattanWorkload::new(&w);
    use seve_world::worlds::Workload;
    use seve_world::GameWorld;
    let action = wl
        .next_action(ClientId(1), 0, &w.initial_state(), 0)
        .expect("move");
    let bytes = seve_rt::wire::to_bytes(&action).unwrap();
    let back: <ManhattanWorld as GameWorld>::Action = seve_rt::wire::from_bytes(&bytes).unwrap();
    assert_eq!(format!("{action:?}"), format!("{back:?}"));
}
