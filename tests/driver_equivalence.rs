//! Driver equivalence: the same workload and seed, run through the
//! discrete-event simulator and through the threaded in-process backend,
//! must tell the same story.
//!
//! The two substrates share one engine layer and one driver crate but
//! differ in everything timing-related (virtual event queue vs real OS
//! threads), so the comparison is scoped to what the protocol actually
//! guarantees:
//!
//! * **One client** — serialization order equals submission order on any
//!   substrate, and the workloads are time-free, so the final states must
//!   be *bit-identical*: same ζ_S digest, same client stable digest, same
//!   resolved-action count.
//! * **Many clients** — interleaving is timing-dependent, so digests may
//!   legitimately differ; what must match is the protocol outcome: every
//!   submission resolves, and Theorem 1 holds on both substrates.

use seve::core::config::{ProtocolConfig, ServerMode};
use seve::core::server::SeveSuite;
use seve::driver::{SimConfig, Simulation};
use seve::rt::{run_inproc_session, SessionConfig};
use seve::world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
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

#[test]
fn single_client_session_is_bit_identical_across_backends() {
    const MOVES: u32 = 20;
    let w = world(1);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Incomplete));

    let mut wl = ManhattanWorkload::new(&w);
    let sim = Simulation::new(
        Arc::clone(&w),
        &suite,
        SimConfig {
            moves_per_client: MOVES,
            ..SimConfig::default()
        },
    )
    .run(&mut wl);

    let session = SessionConfig::fast(MOVES, Duration::from_millis(10), Duration::from_millis(5));
    let inproc = run_inproc_session(Arc::clone(&w), &suite, &session, |_| {
        Box::new(ManhattanWorkload::new(&w))
    });

    assert_eq!(sim.violations, 0);
    assert_eq!(sim.submitted, MOVES as u64);
    assert_eq!(inproc.submitted(), MOVES as u64);
    assert_eq!(
        sim.response_ms.count(),
        inproc.responses(),
        "both backends must resolve every action"
    );
    assert_eq!(
        Some(sim.stable_digests[0]),
        inproc.clients.first().map(|c| c.stable_digest),
        "final replica state must be bit-identical"
    );
    assert_eq!(
        sim.committed_digest, inproc.server.committed_digest,
        "final ζ_S must be bit-identical"
    );
}

#[test]
fn multi_client_sessions_agree_on_protocol_outcome() {
    const N: usize = 4;
    const MOVES: u32 = 12;
    let w = world(N);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Incomplete));

    let mut wl = ManhattanWorkload::new(&w);
    let sim = Simulation::new(
        Arc::clone(&w),
        &suite,
        SimConfig {
            moves_per_client: MOVES,
            ..SimConfig::default()
        },
    )
    .run(&mut wl);

    let session = SessionConfig::fast(MOVES, Duration::from_millis(15), Duration::from_millis(5));
    let mut inproc = run_inproc_session(Arc::clone(&w), &suite, &session, |_| {
        Box::new(ManhattanWorkload::new(&w))
    });

    assert_eq!(sim.submitted, (N as u64) * (MOVES as u64));
    assert_eq!(inproc.submitted(), (N as u64) * (MOVES as u64));
    assert_eq!(sim.violations, 0, "Theorem 1 in the simulator");
    let (records, violations) = inproc.cross_check();
    assert!(records > 0);
    assert_eq!(violations, 0, "Theorem 1 on the threaded backend");
    assert!(
        inproc.responses() >= N * (MOVES as usize) * 9 / 10,
        "threaded backend must resolve nearly every action"
    );
}
