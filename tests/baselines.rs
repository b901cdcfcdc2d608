//! Behavioural contracts of every baseline architecture, end to end.

use seve::prelude::*;
use std::sync::Arc;

fn manhattan(clients: usize, cost_us: u64) -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients,
        walls: 200,
        width: 300.0,
        height: 300.0,
        spawn: SpawnPattern::Grid { spacing: 10.0 },
        cost_override_us: Some(cost_us),
        ..ManhattanConfig::default()
    }))
}

fn sim(moves: u32) -> SimConfig {
    SimConfig {
        moves_per_client: moves,
        ..SimConfig::default()
    }
}

#[test]
fn central_is_consistent_and_server_bound() {
    let world = manhattan(10, 5_000);
    let suite = CentralSuite::with_interest_radius(30.0);
    let mut wl = ManhattanWorkload::new(&world);
    let r = Simulation::new(Arc::clone(&world), &suite, sim(20)).run(&mut wl);
    assert_eq!(r.violations, 0, "a single evaluator cannot disagree");
    assert_eq!(r.server.installed, r.submitted);
    // The server pays the game logic; thin clients pay almost nothing.
    assert!(r.server_compute_us > 10 * r.client_compute_us);
    // Uncontended response ≈ RTT.
    assert!((230.0..450.0).contains(&r.response_ms.mean()));
}

#[test]
fn central_collapses_beyond_one_machine() {
    // 10 clients × 5 ms fits in a 300 ms round; 50 clients × 9 ms does not.
    let light = {
        let world = manhattan(10, 5_000);
        let suite = CentralSuite::with_interest_radius(30.0);
        let mut wl = ManhattanWorkload::new(&world);
        Simulation::new(world, &suite, sim(25)).run(&mut wl)
    };
    let heavy = {
        let world = manhattan(50, 9_000);
        let suite = CentralSuite::with_interest_radius(30.0);
        let mut wl = ManhattanWorkload::new(&world);
        Simulation::new(world, &suite, sim(25)).run(&mut wl)
    };
    assert!(
        heavy.response_ms.mean() > 4.0 * light.response_ms.mean(),
        "saturated Central must collapse: {} vs {}",
        heavy.response_ms.mean(),
        light.response_ms.mean()
    );
}

#[test]
fn broadcast_traffic_is_quadratic() {
    let bytes_at = |n: usize| {
        let world = manhattan(n, 500);
        let suite = BroadcastSuite;
        let mut wl = ManhattanWorkload::new(&world);
        Simulation::new(world, &suite, sim(15))
            .run(&mut wl)
            .total_bytes
    };
    let b8 = bytes_at(8);
    let b32 = bytes_at(32);
    // 4× the clients → 16× the traffic for a quadratic protocol (allow
    // generous slack for fixed overheads).
    let ratio = b32 as f64 / b8 as f64;
    assert!(
        ratio > 10.0,
        "broadcast should scale ~quadratically, got ratio {ratio:.1}"
    );
}

#[test]
fn seve_traffic_stays_near_central() {
    let world = manhattan(24, 500);
    let mut wl = ManhattanWorkload::new(&world);
    let central = Simulation::new(
        Arc::clone(&world),
        &CentralSuite::with_interest_radius(30.0),
        sim(15),
    )
    .run(&mut wl);
    let mut wl = ManhattanWorkload::new(&world);
    let seve_suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let seve = Simulation::new(Arc::clone(&world), &seve_suite, sim(15)).run(&mut wl);
    let mut wl = ManhattanWorkload::new(&world);
    let bcast = Simulation::new(Arc::clone(&world), &BroadcastSuite, sim(15)).run(&mut wl);
    assert!(
        (seve.total_bytes as f64) < 3.0 * central.total_bytes as f64,
        "SEVE must not incur significantly higher network costs (Figure 9): {} vs {}",
        seve.total_bytes,
        central.total_bytes
    );
    assert!(seve.total_bytes < bcast.total_bytes);
}

#[test]
fn ring_diverges_in_dense_combat() {
    let world = Arc::new(CombatWorld::new(CombatConfig {
        clients: 16,
        scry_range: 250.0,
        ..CombatConfig::default()
    }));
    let suite = RingSuite::new(50.0);
    let mut wl = CombatWorkload::new(Arc::clone(&world));
    let r = Simulation::new(Arc::clone(&world), &suite, sim(30)).run(&mut wl);
    assert!(
        r.violations > 0,
        "scrying reads beyond visibility must break RING"
    );
    // And the same world under SEVE stays clean.
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let mut wl = CombatWorkload::new(Arc::clone(&world));
    let r = Simulation::new(world, &suite, sim(30)).run(&mut wl);
    assert_eq!(r.violations, 0);
}

#[test]
fn locking_serializes_conflicts_at_multiple_rtts() {
    // Ring contention: every neighbour pair shares a fork, so a waiter
    // queues behind the full 2×RTT lock cycle of its neighbour.
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: 12,
        ..DiningConfig::default()
    }));
    let mut wl = DiningWorkload::new(&world);
    let locking = Simulation::new(Arc::clone(&world), &LockingSuite, sim(15)).run(&mut wl);
    assert_eq!(locking.violations, 0, "locking is strongly consistent");
    assert_eq!(locking.server.installed, locking.submitted);
    let mut wl = DiningWorkload::new(&world);
    let seve_suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let seve = Simulation::new(world, &seve_suite, sim(15)).run(&mut wl);
    assert!(
        locking.response_ms.mean() > 2.0 * seve.response_ms.mean(),
        "contended locking must be slower than SEVE: {} vs {}",
        locking.response_ms.mean(),
        seve.response_ms.mean()
    );
}

#[test]
fn timestamp_aborts_under_contention_and_stays_consistent() {
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: 12,
        ..DiningConfig::default()
    }));
    let mut wl = DiningWorkload::new(&world);
    let r = Simulation::new(world, &TimestampSuite, sim(20)).run(&mut wl);
    assert_eq!(r.violations, 0);
    assert!(
        r.server.drops > 0,
        "shared forks must cause certification aborts"
    );
    assert!(r.response_ms.mean() > 238.0);
}

#[test]
fn a_saturated_client_costs_events_linear_in_messages() {
    // The client-side twin of the simulator's saturated-server test. Every
    // Broadcast client simulates every other client's move at full cost:
    // 12 clients × 40 ms a move, every 300 ms, is 1.5 times what one
    // client machine can evaluate, so every inbox backs up. One client
    // wake per instant keeps the events a message costs independent of
    // that backlog.
    let world = manhattan(12, 40_000);
    let mut wl = ManhattanWorkload::new(&world);
    let r = Simulation::new(world, &BroadcastSuite, sim(10)).run(&mut wl);
    // Measured: 4 517 events for 1 560 messages. A wake filed per arrival
    // instead pops 52 093.
    assert!(
        r.events <= 6 * r.total_msgs,
        "{} events for {} messages",
        r.events,
        r.total_msgs
    );
}
