//! Standalone SEVE client.
//!
//! ```text
//! seve-client --connect host:4000 --id 0 [--moves N] [--period MS]
//!             [--clients N --walls N --seed N --mode ... --rtt MS]
//! ```
//!
//! Joins a session hosted by `seve-server`, plays the Manhattan People
//! workload, and prints its response-time summary. World parameters must
//! match the server's.

use seve_driver::report::render_replay_work;
use seve_driver::{FaultPlan, SessionParams};
use seve_rt::cli::{build_protocol, build_world, exit_usage, parse_common, value};
use seve_rt::run_client_with;
use seve_world::ids::ClientId;
use seve_world::worlds::manhattan::ManhattanWorkload;
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "usage: seve-client [--connect ADDR] [--id N] [--moves N] [--period MS]
                   [--clients N] [--walls N] [--seed N]
                   [--mode basic|incomplete|first-bound|info-bound] [--rtt MS]";

fn main() {
    let mut connect = SocketAddr::from(([127, 0, 0, 1], 4000));
    let mut id: u16 = 0;
    let mut moves: u32 = 50;
    let mut period_ms: u64 = 100;
    let mut common: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let parsed = match a.as_str() {
            "--connect" => value("--connect", &mut it).map(|v| connect = v),
            "--id" => value("--id", &mut it).map(|v| id = v),
            "--moves" => value("--moves", &mut it).map(|v| moves = v),
            "--period" => value("--period", &mut it).map(|v| period_ms = v),
            _ => {
                common.push(a);
                Ok(())
            }
        };
        parsed.unwrap_or_else(|e| exit_usage(USAGE, e));
    }
    let opts = parse_common(common.into_iter()).unwrap_or_else(|e| exit_usage(USAGE, e));
    let world = build_world(&opts);
    let cfg = build_protocol(&opts);

    println!("seve-client {id}: joining {connect}, {moves} moves every {period_ms} ms");
    let mut wl = ManhattanWorkload::new(&world);
    match run_client_with(
        world,
        &cfg,
        connect,
        ClientId(id),
        &mut wl,
        moves,
        Duration::from_millis(period_ms),
        &FaultPlan::none(),
        SessionParams::default(),
    ) {
        Ok(report) => {
            println!("done: responses {}", report.metrics.response_ms);
            println!(
                "  submitted {} dropped {} reconciliations {}",
                report.metrics.submitted, report.metrics.dropped, report.metrics.reconciliations
            );
            println!("  stable digest {:x}", report.stable_digest);
            let w = report.replay_work();
            eprint!(
                "{}",
                render_replay_work(
                    &format!("client {id}"),
                    w.rebuilds,
                    w.entries_replayed,
                    w.checkpoint_hits,
                    w.commute_hits,
                )
            );
        }
        Err(e) => {
            eprintln!("client failed: {e}");
            std::process::exit(1);
        }
    }
}
