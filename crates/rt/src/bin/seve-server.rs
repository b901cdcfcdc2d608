//! Standalone SEVE server.
//!
//! ```text
//! seve-server --listen 0.0.0.0:4000 --clients 8 [--walls N] [--seed N]
//!             [--mode basic|incomplete|first-bound|info-bound] [--rtt MS]
//! ```
//!
//! Hosts one session: accepts exactly `--clients` connections, serializes
//! and routes their actions until every client says goodbye, then prints
//! the server-side report. World parameters must match the clients'.

use seve_core::engine::ProtocolSuite;
use seve_core::pipeline::PipelineServer;
use seve_core::server::SeveSuite;
use seve_driver::report::render_stage_profile;
use seve_rt::cli::{build_protocol, build_world, parse_common};
use seve_rt::run_server;
use seve_world::worlds::manhattan::ManhattanWorld;
use std::net::TcpListener;
use std::time::Duration;

fn main() {
    let mut listen = "127.0.0.1:4000".to_string();
    let mut raw: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--listen" {
            listen = it.next().unwrap_or_else(|| {
                eprintln!("--listen needs an address");
                std::process::exit(2);
            });
        } else {
            raw.push(a);
        }
    }
    let opts = parse_common(raw.into_iter()).unwrap_or_else(|e| {
        eprintln!("argument error: {e}");
        std::process::exit(2);
    });
    let world = build_world(&opts);
    let cfg = build_protocol(&opts);
    let tick = Duration::from_millis(cfg.tick.as_micros() / 1000);
    let push = Duration::from_millis(cfg.push_period().as_micros().max(1000) / 1000);

    let listener = TcpListener::bind(&listen).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    println!(
        "seve-server: {} mode on {listen}, waiting for {} clients (world seed {}, {} walls)",
        cfg.mode.name(),
        opts.clients,
        opts.seed,
        opts.walls
    );

    let mode_name = cfg.mode.name();
    let suite = SeveSuite::new(cfg);
    let digest = {
        use seve_world::GameWorld;
        world.initial_state().digest()
    };
    let (server, _clients): (PipelineServer<ManhattanWorld>, _) = suite.build(world);
    match run_server(server, listener, opts.clients, tick, push, digest) {
        Ok(report) => {
            println!("session complete:");
            println!("  submissions : {}", report.metrics.submissions);
            println!("  installed   : {}", report.metrics.installed);
            println!("  dropped     : {}", report.metrics.drops);
            println!("  bytes out   : {}", report.bytes_out);
            println!("  zeta_s      : {:?}", report.committed_digest);
            // Wall-clock stage timings vary run to run; stderr keeps the
            // stdout report stable.
            eprint!(
                "{}",
                render_stage_profile(
                    &format!("{mode_name} @ {} clients", opts.clients),
                    report.stage()
                )
            );
        }
        Err(e) => {
            eprintln!("server failed: {e}");
            std::process::exit(1);
        }
    }
}
