//! End-to-end SEVE session over real TCP loopback: the paper's "real
//! experiments" counterpart. One server thread, four client threads, the
//! Manhattan People workload, and the same Theorem 1 consistency oracle
//! the simulator applies.

use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::consistency::ConsistencyOracle;
use seve_core::pipeline::PipelineServer;
use seve_driver::{FaultPlan, SessionParams};
use seve_rt::{run_client_with, run_server_with};
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
    let digest = {
        use seve_world::GameWorld;
        w.initial_state().digest()
    };
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
