//! Dining Philosophers on the equator — Section III-E's unbounded-closure
//! example, live.
//!
//! ```text
//! cargo run --release -p seve --example dining_philosophers -- [philosophers]
//! ```
//!
//! Every philosopher grabs both forks on the same cadence. Under the First
//! Bound Model (no dropping), the transitive conflict closure hauls the
//! entire ring to every client; under the Information Bound Model
//! (Algorithm 7), a few well-placed drops break the ring into short arcs.
//! The lock-based protocol of Section II-B runs the same ring for contrast:
//! strongly consistent, but conflicting neighbours serialize at 2×RTT each.

use seve::prelude::*;
use std::sync::Arc;

fn run(name: &str, result: RunResult) {
    println!(
        "{:<22} mean {:>7.1} ms   p95 {:>7.1} ms   dropped {:>5.2}%   mean batch {:>5.1}   committed {}",
        name,
        result.response_ms.mean(),
        result.response_ms.p95(),
        result.drop_percent(),
        result.server.batch_items.mean(),
        result.server.installed,
    );
    assert_eq!(result.violations, 0, "all dining protocols stay consistent");
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(48);
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: n,
        spacing: 10.0,
        ..DiningConfig::default()
    }));
    // The Section III-E adversary: every philosopher grabs on the same
    // tick, so the conflict chain closes around the whole ring.
    let sim = SimConfig {
        moves_per_client: 40,
        stagger: false,
        ..SimConfig::default()
    };

    println!(
        "Dining Philosophers, ring of {n} (spacing 10, threshold 45), \
         synchronized grabs:\n"
    );

    let mut wl = DiningWorkload::new(&world);
    let first_bound = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::FirstBound));
    run(
        "First Bound (no drop)",
        Simulation::new(Arc::clone(&world), &first_bound, sim.clone()).run(&mut wl),
    );

    let mut wl = DiningWorkload::new(&world);
    let info_bound = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    run(
        "Information Bound",
        Simulation::new(Arc::clone(&world), &info_bound, sim.clone()).run(&mut wl),
    );

    let mut wl = DiningWorkload::new(&world);
    let locking = LockingSuite;
    run(
        "Locking (Sec II-B)",
        Simulation::new(Arc::clone(&world), &locking, sim.clone()).run(&mut wl),
    );

    let mut wl = DiningWorkload::new(&world);
    let ts = TimestampSuite;
    run(
        "Timestamp (Sec II-B)",
        Simulation::new(Arc::clone(&world), &ts, sim).run(&mut wl),
    );

    println!(
        "\nThe First Bound batches grow with the ring (\"a transitive closure of \
         conflicts encompasses the entire world\");\nthe Information Bound drops \
         a few grabs per round and the batches stay arc-sized."
    );
}
