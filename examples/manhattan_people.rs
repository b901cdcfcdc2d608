//! Manhattan People under every architecture — a miniature of the paper's
//! Figure 6 comparison, runnable with custom parameters.
//!
//! ```text
//! cargo run --release -p seve --example manhattan_people -- [clients] [walls] [moves]
//! ```
//!
//! Runs the same world + workload under SEVE, the Central (Second Life /
//! WoW) model, the Broadcast (NPSNET/SIMNET) model, and the RING-like
//! visibility filter, printing a comparison table.

use seve::prelude::*;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let walls: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let moves: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);

    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients,
        walls,
        ..ManhattanConfig::default()
    }));
    let sim = SimConfig {
        moves_per_client: moves,
        ..SimConfig::default()
    };

    println!(
        "Manhattan People: {clients} clients, {walls} walls, {moves} moves each  \
         (per-move cost ≈ {:.1} ms)",
        7.44 * walls as f64 / 100_000.0 + 0.49
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "protocol", "mean ms", "p95 ms", "drop %", "kB total", "violations"
    );

    let run = |name: &str, r: RunResult| {
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>10.2} {:>12.1} {:>12}",
            name,
            r.response_ms.mean(),
            r.response_ms.p95(),
            r.drop_percent(),
            r.total_kb(),
            r.violations
        );
    };

    let seve_suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let mut wl = ManhattanWorkload::new(&world);
    run(
        "SEVE",
        Simulation::new(Arc::clone(&world), &seve_suite, sim.clone()).run(&mut wl),
    );

    let central = CentralSuite::with_interest_radius(world.config().visibility);
    let mut wl = ManhattanWorkload::new(&world);
    run(
        "Central",
        Simulation::new(Arc::clone(&world), &central, sim.clone()).run(&mut wl),
    );

    let broadcast = BroadcastSuite;
    let mut wl = ManhattanWorkload::new(&world);
    run(
        "Broadcast",
        Simulation::new(Arc::clone(&world), &broadcast, sim.clone()).run(&mut wl),
    );

    let ring = RingSuite::new(world.config().visibility);
    let mut wl = ManhattanWorkload::new(&world);
    run(
        "RING",
        Simulation::new(Arc::clone(&world), &ring, sim).run(&mut wl),
    );

    println!(
        "\nReading the table: Central/Broadcast response collapses once \
         clients × move-cost exceeds one machine's 300 ms budget;\n\
         SEVE stays near its (1+ω)·RTT bound; RING is fast but the \
         violations column shows replicas silently diverging."
    );
}
