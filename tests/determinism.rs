//! Bit-exact reproducibility: every suite, twice, identical results.
//!
//! The simulator exists to make the paper's experiments reproducible; that
//! only holds if runs are deterministic functions of their configuration.

use seve::prelude::*;
use std::sync::Arc;

fn fingerprint(r: &RunResult) -> (Vec<u64>, Option<u64>, u64, u64, Vec<f64>) {
    (
        r.stable_digests.clone(),
        r.committed_digest,
        r.total_bytes,
        r.dropped,
        r.response_ms.samples().to_vec(),
    )
}

fn manhattan_run<P: ProtocolSuite<ManhattanWorld>>(suite: &P) -> RunResult {
    // (generic over suite so one helper serves every protocol family)
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: 10,
        walls: 400,
        width: 300.0,
        height: 300.0,
        spawn: SpawnPattern::Clustered {
            cluster_size: 5,
            cluster_radius: 12.0,
        },
        cost_override_us: Some(1_500),
        seed: 42,
        ..ManhattanConfig::default()
    }));
    let mut wl = ManhattanWorkload::new(&world);
    let sim = SimConfig {
        moves_per_client: 20,
        seed: 99,
        ..SimConfig::default()
    };
    Simulation::new(world, suite, sim).run(&mut wl)
}

#[test]
fn every_suite_is_deterministic() {
    macro_rules! check {
        ($name:expr, $suite:expr) => {{
            let a = manhattan_run(&$suite);
            let b = manhattan_run(&$suite);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{} must be deterministic",
                $name
            );
        }};
    }
    check!(
        "SEVE",
        SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound))
    );
    check!(
        "SEVE-nodrop",
        SeveSuite::new(ProtocolConfig::with_mode(ServerMode::FirstBound))
    );
    check!(
        "incomplete",
        SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Incomplete))
    );
    check!(
        "basic",
        SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic))
    );
    check!("central", CentralSuite::with_interest_radius(30.0));
    check!("broadcast", BroadcastSuite::default());
    check!("ring", RingSuite::new(30.0));
    check!("locking", LockingSuite::default());
    check!("timestamp", TimestampSuite::default());
}

#[test]
fn different_seeds_change_the_run() {
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: 8,
        walls: 100,
        cost_override_us: Some(1_000),
        ..ManhattanConfig::default()
    }));
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let run = |seed: u64| {
        let mut wl = ManhattanWorkload::new(&world);
        let sim = SimConfig {
            moves_per_client: 15,
            seed,
            ..SimConfig::default()
        };
        Simulation::new(Arc::clone(&world), &suite, sim).run(&mut wl)
    };
    let a = run(1);
    let b = run(2);
    // Different stagger seeds → different serialization orders → different
    // samples (with overwhelming probability for 8×15 moves).
    assert_ne!(
        a.response_ms.samples(),
        b.response_ms.samples(),
        "stagger seed must matter"
    );
    // But consistency is seed-independent.
    assert_eq!(a.violations, 0);
    assert_eq!(b.violations, 0);
}

#[test]
fn world_generation_is_seed_stable() {
    use seve::world::GameWorld;
    let w1 = ManhattanWorld::new(ManhattanConfig {
        seed: 7,
        ..ManhattanConfig::default()
    });
    let w2 = ManhattanWorld::new(ManhattanConfig {
        seed: 7,
        ..ManhattanConfig::default()
    });
    assert_eq!(w1.initial_state().digest(), w2.initial_state().digest());
    let w3 = ManhattanWorld::new(ManhattanConfig {
        seed: 8,
        ..ManhattanConfig::default()
    });
    assert_ne!(w1.initial_state().digest(), w3.initial_state().digest());
}

/// FNV-1a-style fold of a run's per-client or per-sample values into one
/// pinnable constant.
fn fold(xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn timer_wheel_and_heap_agree_on_a_dense_run() {
    // 128 clustered avatars each moving every 60 ms against the 50 ms tick:
    // about a hundred new actions per Algorithm 7 tick. The timer wheel must
    // pop the exact event sequence the binary heap it replaced did, so the
    // run must reproduce, event for event, the constants recorded from a
    // heap-driven run of this configuration at commit 19346ed. They were
    // re-pinned once since, when links began charging the bytes the codec
    // writes instead of a hand-written size model.
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: 128,
        walls: 0,
        width: 400.0,
        height: 400.0,
        spawn: SpawnPattern::Clustered {
            cluster_size: 6,
            cluster_radius: 14.0,
        },
        ..ManhattanConfig::default()
    }));
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let sim = SimConfig {
        moves_per_client: 15,
        move_period: SimDuration::from_ms(60),
        ..SimConfig::default()
    };
    let mut wl = ManhattanWorkload::new(&world);
    let r = Simulation::new(Arc::clone(&world), &suite, sim).run(&mut wl);
    assert_eq!(fold(r.stable_digests.iter().copied()), 16762407823510458111);
    assert_eq!(r.committed_digest, Some(2274325552772886385));
    assert_eq!(r.total_bytes, 1882038);
    let samples = r.response_ms.samples();
    assert_eq!(samples.len(), 1832);
    assert_eq!(
        fold(samples.iter().map(|s| s.to_bits())),
        2934515345429681813
    );
    assert_eq!(r.duration, SimDuration::from_micros(5890500));
}

#[test]
fn an_uncapped_run_is_pinned_apart_from_bytes() {
    // With no bandwidth cap a message's size reaches nothing but the byte
    // counters: link delays are latency alone. So these five constants
    // must not move when only the size of a message does; `total_bytes`
    // is deliberately not among them.
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: 32,
        walls: 0,
        width: 200.0,
        height: 200.0,
        spawn: SpawnPattern::Clustered {
            cluster_size: 6,
            cluster_radius: 14.0,
        },
        ..ManhattanConfig::default()
    }));
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let sim = SimConfig {
        bandwidth_bps: None,
        moves_per_client: 15,
        move_period: SimDuration::from_ms(60),
        ..SimConfig::default()
    };
    let mut wl = ManhattanWorkload::new(&world);
    let r = Simulation::new(Arc::clone(&world), &suite, sim).run(&mut wl);
    assert_eq!(r.violations, 0);
    let responses = fold(r.response_ms.samples().iter().map(|s| s.to_bits()));
    assert_eq!(
        (
            fold(r.stable_digests.iter().copied()),
            r.committed_digest,
            responses,
            r.events,
            r.total_msgs,
        ),
        (
            2393547491228595908,
            Some(3965062110165679921),
            496164663838378087,
            2841,
            1662
        )
    );
}
