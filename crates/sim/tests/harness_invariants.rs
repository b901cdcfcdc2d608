//! Cross-cutting invariants of the experiment harness, checked over real
//! runs of several protocol suites.

use seve_baselines::{BroadcastSuite, CentralSuite, RingSuite};
use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::engine::ProtocolSuite;
use seve_core::server::SeveSuite;
use seve_sim::{RunResult, SimConfig, Simulation};
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use std::sync::Arc;

fn world() -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: 10,
        walls: 200,
        width: 300.0,
        height: 300.0,
        spawn: SpawnPattern::Grid { spacing: 12.0 },
        cost_override_us: Some(1_000),
        ..ManhattanConfig::default()
    }))
}

fn run<P: ProtocolSuite<ManhattanWorld>>(suite: &P) -> RunResult {
    let w = world();
    let mut wl = ManhattanWorkload::new(&w);
    let sim = SimConfig {
        moves_per_client: 15,
        ..SimConfig::default()
    };
    Simulation::new(w, suite, sim).run(&mut wl)
}

fn check_invariants(name: &str, r: &RunResult) {
    // Accounting identities.
    assert_eq!(
        r.total_bytes,
        r.server_up_bytes + r.server_down_bytes,
        "{name}: byte totals must decompose"
    );
    assert_eq!(r.submitted, 150, "{name}: 10 clients × 15 moves");
    assert!(
        r.response_ms.count() as u64 + r.dropped <= r.submitted,
        "{name}: responses + drops cannot exceed submissions"
    );
    // Virtual time covers at least the move phase.
    assert!(
        r.duration.as_secs_f64() >= 15.0 * 0.3,
        "{name}: run shorter than the move phase"
    );
    // Compute totals are plausible: at least one evaluation's worth, and
    // utilization is a fraction.
    assert!((0.0..=1.0).contains(&r.server_utilization), "{name}");
    // Response times can never beat the physics: one-way latency is
    // 119 ms, and every protocol needs at least one round trip.
    assert!(
        r.response_ms.min() >= 238.0 || r.response_ms.is_empty(),
        "{name}: response {} beat the speed of light",
        r.response_ms.min()
    );
}

#[test]
fn accounting_invariants_hold_for_every_suite() {
    check_invariants(
        "seve",
        &run(&SeveSuite::new(ProtocolConfig::with_mode(
            ServerMode::InfoBound,
        ))),
    );
    check_invariants(
        "basic",
        &run(&SeveSuite::new(ProtocolConfig::with_mode(
            ServerMode::Basic,
        ))),
    );
    check_invariants("central", &run(&CentralSuite::with_interest_radius(30.0)));
    check_invariants("broadcast", &run(&BroadcastSuite));
    check_invariants("ring", &run(&RingSuite::new(30.0)));
}

#[test]
fn nearly_all_submissions_get_responses_after_drain() {
    let r = run(&SeveSuite::new(ProtocolConfig::with_mode(
        ServerMode::InfoBound,
    )));
    let resolved = r.response_ms.count() as u64 + r.dropped;
    assert!(
        resolved * 100 >= r.submitted * 95,
        "only {resolved} of {} submissions resolved",
        r.submitted
    );
}

#[test]
fn moves_per_client_zero_is_a_clean_noop() {
    let w = world();
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let mut wl = ManhattanWorkload::new(&w);
    let sim = SimConfig {
        moves_per_client: 0,
        ..SimConfig::default()
    };
    let r = Simulation::new(w, &suite, sim).run(&mut wl);
    assert_eq!(r.submitted, 0);
    assert_eq!(r.violations, 0);
    assert_eq!(r.response_ms.count(), 0);
}

#[test]
fn single_client_worlds_work() {
    let w = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: 1,
        walls: 50,
        width: 100.0,
        height: 100.0,
        spawn: SpawnPattern::Uniform,
        cost_override_us: Some(500),
        ..ManhattanConfig::default()
    }));
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let mut wl = ManhattanWorkload::new(&w);
    let sim = SimConfig {
        moves_per_client: 10,
        ..SimConfig::default()
    };
    let r = Simulation::new(w, &suite, sim).run(&mut wl);
    assert_eq!(r.submitted, 10);
    assert_eq!(r.violations, 0);
    assert_eq!(r.response_ms.count(), 10);
}
