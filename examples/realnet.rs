//! SEVE over real transports — the "real experiments" half of Section V.
//!
//! ```text
//! cargo run --release -p seve --example realnet -- [clients] [moves] [backend]
//! ```
//!
//! `backend` selects the threaded substrate under the shared node driver:
//!
//! * `tcp` (default) — loopback sockets with the binary wire protocol,
//! * `inproc` — OS threads wired by in-process channels (no sockets).
//!
//! Either way the example boots the Information Bound server and N client
//! nodes, runs a Manhattan People session, and cross-checks every replica's
//! evaluations with the consistency oracle. The engine loops are identical
//! across backends — only the transport differs.

use seve::core::consistency::ConsistencyOracle;
use seve::core::pipeline::PipelineServer;
use seve::driver::{run_inproc_session, SessionConfig};
use seve::prelude::*;
use seve::rt::{run_client, run_server};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let moves: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let backend = args.next().unwrap_or_else(|| "tcp".to_string());

    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: n,
        walls: 500,
        width: 300.0,
        height: 300.0,
        spawn: SpawnPattern::Grid { spacing: 12.0 },
        ..ManhattanConfig::default()
    }));

    // Loopback RTT is microseconds; scale the protocol cycles accordingly.
    let mut cfg = ProtocolConfig::with_mode(ServerMode::InfoBound);
    cfg.rtt = SimDuration::from_ms(20);
    cfg.tick = SimDuration::from_ms(5);

    match backend.as_str() {
        "tcp" => run_tcp(world, cfg, n, moves),
        "inproc" => run_inproc(world, cfg, n, moves),
        other => {
            eprintln!("unknown backend {other:?}: expected \"tcp\" or \"inproc\"");
            std::process::exit(2);
        }
    }
}

fn run_tcp(world: Arc<ManhattanWorld>, cfg: ProtocolConfig, n: usize, moves: u32) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    println!("SEVE server listening on {addr} — {n} clients × {moves} moves over real TCP\n");

    let server_world = Arc::clone(&world);
    let server_cfg = cfg.clone();
    let digest = world.initial_state().digest();
    let server = std::thread::spawn(move || {
        run_server(
            PipelineServer::new(server_world, server_cfg),
            listener,
            n,
            Duration::from_millis(5),
            Duration::from_millis(5),
            digest,
        )
        .expect("server session")
    });

    let mut clients = Vec::new();
    for i in 0..n {
        let world = Arc::clone(&world);
        let cfg = cfg.clone();
        clients.push(std::thread::spawn(move || {
            let mut wl = ManhattanWorkload::new(&world);
            run_client(
                Arc::clone(&world),
                &cfg,
                addr,
                ClientId(i as u16),
                &mut wl,
                moves,
                Duration::from_millis(30),
            )
            .expect("client session")
        }));
    }

    let mut oracle = ConsistencyOracle::new();
    let mut response = Summary::new();
    let mut bytes = 0u64;
    for c in clients {
        let mut report = c.join().expect("client thread");
        response.merge(&report.metrics.response_ms);
        bytes += report.bytes_out;
        for rec in report.metrics.take_eval_records() {
            oracle.observe(&rec);
        }
    }
    let server_report = server.join().expect("server thread");

    print_outcome(
        &response,
        bytes,
        server_report.bytes_out,
        server_report.metrics.installed,
        server_report.committed_digest,
        &server_report.metrics.stage,
        &oracle,
    );
}

fn run_inproc(world: Arc<ManhattanWorld>, cfg: ProtocolConfig, n: usize, moves: u32) {
    println!("SEVE in-process session — {n} clients × {moves} moves over channels\n");
    let suite = SeveSuite::new(cfg);
    let session = SessionConfig::fast(moves, Duration::from_millis(30), Duration::from_millis(5));
    let mut report = run_inproc_session(Arc::clone(&world), &suite, &session, |_| {
        Box::new(ManhattanWorkload::new(&world))
    });

    let mut oracle = ConsistencyOracle::new();
    let mut response = Summary::new();
    let mut bytes = 0u64;
    for c in &mut report.clients {
        response.merge(&c.metrics.response_ms);
        bytes += c.bytes_out;
        for rec in c.metrics.take_eval_records() {
            oracle.observe(&rec);
        }
    }

    print_outcome(
        &response,
        bytes,
        report.server.bytes_out,
        report.server.metrics.installed,
        report.server.committed_digest,
        &report.server.metrics.stage,
        &oracle,
    );
}

fn print_outcome(
    response: &Summary,
    bytes_up: u64,
    bytes_down: u64,
    installed: u64,
    committed_digest: Option<u64>,
    stage: &seve::core::metrics::StageMetrics,
    oracle: &ConsistencyOracle,
) {
    println!("session complete:");
    println!("  responses  : {}", response);
    println!(
        "  transfer   : {:.1} kB up, {:.1} kB down",
        bytes_up as f64 / 1000.0,
        bytes_down as f64 / 1000.0
    );
    println!("  ζ_S        : {installed} actions installed, digest {committed_digest:?}");
    println!(
        "  consistency: {} evaluations cross-checked, {} violations",
        oracle.records(),
        oracle.violations().len()
    );
    // Wall-clock stage profile with the wire-path counters (frames
    // encoded vs reused, pool hits, writev batches) to stderr, keeping
    // stdout byte-stable for scripted comparisons.
    eprintln!();
    eprint!(
        "{}",
        seve::driver::report::render_stage_profile("realnet", stage)
    );
    assert!(oracle.is_consistent(), "Theorem 1 over a real transport");
}
