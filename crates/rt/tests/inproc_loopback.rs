//! End-to-end SEVE session on the in-process backend: the same session
//! shape as the TCP loopback test (`loopback.rs`) — one server, four
//! client threads, the Manhattan People workload, the Theorem 1 oracle —
//! over in-memory pipes instead of sockets, through the same handshake,
//! lanes and `NodeDriver` loops, with real concurrency and wall-clock
//! timers.

use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::server::SeveSuite;
use seve_rt::{run_inproc_session, SessionConfig};
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use seve_world::GameWorld;
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
    // In-process hops are sub-microsecond; scale the cycles down so the
    // session finishes quickly while the protocol structure is identical.
    cfg.rtt = seve_net::time::SimDuration::from_ms(20);
    cfg.tick = seve_net::time::SimDuration::from_ms(5);
    cfg
}

fn run_session(mode: ServerMode) {
    const N: usize = 4;
    const MOVES: u32 = 12;
    let w = world(N);
    let suite = SeveSuite::new(fast_cfg(mode));
    let session = SessionConfig::fast(MOVES, Duration::from_millis(25));

    let mut report = run_inproc_session(Arc::clone(&w), &suite, &session, |_| {
        Box::new(ManhattanWorkload::new(&w))
    });

    for c in &report.clients {
        assert!(!c.crashed, "no faults were injected");
        assert_eq!(c.metrics.replay_divergences, 0);
    }
    let (records, violations) = report.cross_check();
    assert!(records > 0, "clients must evaluate actions");
    assert_eq!(
        violations, 0,
        "Theorem 1 must hold over in-process channels"
    );
    let responses = report.responses();
    assert!(
        responses >= N * (MOVES as usize) * 9 / 10,
        "most moves must get stable responses, got {responses}"
    );
    assert!(report.server.metrics.installed > 0, "completions installed");
    assert!(report.server.bytes_out > 0);
    // The stage profile — once simulator-only observability — is populated
    // by the driven backend too.
    assert!(report.server.stage().ingress.events > 0);
}

#[test]
fn incomplete_world_inproc_is_consistent() {
    run_session(ServerMode::Incomplete);
}

#[test]
fn info_bound_inproc_is_consistent() {
    run_session(ServerMode::InfoBound);
}

/// Over pipes, as over TCP, each side counts the bytes of the frames it
/// writes, so a session moves traffic both ways.
#[test]
fn inproc_session_accounts_traffic_both_ways() {
    const N: usize = 3;
    let w = world(N);
    let suite = SeveSuite::new(fast_cfg(ServerMode::Incomplete));
    let session = SessionConfig::fast(8, Duration::from_millis(20));
    let report = run_inproc_session(Arc::clone(&w), &suite, &session, |_| {
        Box::new(ManhattanWorkload::new(&w))
    });
    assert!(report.server.bytes_out > 0, "server wrote pushes");
    for c in &report.clients {
        assert!(c.bytes_out > 0, "every client wrote submissions");
    }
    assert_eq!(report.submitted(), (N as u64) * 8);
    let _ = w.num_clients();
}
