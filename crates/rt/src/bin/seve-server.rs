//! Standalone SEVE server.
//!
//! ```text
//! seve-server --listen 0.0.0.0:4000 --clients 8 [--walls N] [--seed N]
//!             [--mode basic|incomplete|first-bound|info-bound] [--rtt MS]
//! ```
//!
//! Hosts one session: accepts exactly `--clients` connections, serializes
//! and routes their actions until every client says goodbye, then prints
//! the server-side report. World parameters and mode must match the
//! clients'.

use seve_core::engine::ProtocolSuite;
use seve_core::pipeline::PipelineServer;
use seve_core::server::SeveSuite;
use seve_driver::report::render_stage_profile;
use seve_driver::SessionParams;
use seve_rt::cli::{build_protocol, build_world, exit_usage, parse_common, value};
use seve_rt::{hello_digest, run_server_with};
use seve_world::worlds::manhattan::ManhattanWorld;
use std::net::TcpListener;
use std::time::Duration;

const USAGE: &str = "usage: seve-server [--listen ADDR] [--clients N] [--walls N] [--seed N]
                   [--mode basic|incomplete|first-bound|info-bound] [--rtt MS]";

fn main() {
    let mut listen = "127.0.0.1:4000".to_string();
    let mut common: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--listen" {
            listen = value("--listen", &mut it).unwrap_or_else(|e| exit_usage(USAGE, e));
        } else {
            common.push(a);
        }
    }
    let opts = parse_common(common.into_iter()).unwrap_or_else(|e| exit_usage(USAGE, e));
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
    let digest = hello_digest(world.as_ref(), &cfg);
    let suite = SeveSuite::new(cfg);
    let (server, _clients): (PipelineServer<ManhattanWorld>, _) = suite.build(world);
    let session = SessionParams::default();
    match run_server_with(server, listener, opts.clients, tick, push, digest, session) {
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
