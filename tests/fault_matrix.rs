//! The fault-injection matrix: up-lane drop / duplicate / reorder /
//! delay, connection cut, mid-run crash and link partition, crossed over
//! the three fault-capable backends (the deterministic simulator, the
//! threaded in-process runtime, and the real-TCP runtime).
//!
//! The fault model is a stream's (DESIGN.md §16.0): a live connection
//! neither loses, duplicates nor reorders a frame, and a connection that
//! dies loses its unacked tail. What each cell must show follows from the
//! protocol's tolerance envelope and the session layer's recovery:
//!
//! * **Up lane — disorder and duplication absorbed.** What a broken or
//!   hostile client does to its own submissions. Arrival order *is*
//!   serialization order (Algorithm 2 timestamps on receipt), the server
//!   dedups submissions by action id, and completions are idempotent. Any
//!   lossless up-lane fault leaves Theorem 1 and complete-world
//!   convergence intact.
//! * **Up drops.** An up-lane drop silently unsubmits an action (it never
//!   serializes; the session just resolves fewer actions, consistently).
//! * **Down lane — a cut is *recovered* by resume.** A connection cut is a
//!   short [`LinkPartition`]: the client goes dark with down frames in
//!   flight, and those are lost. Frames sent before the cut can still
//!   arrive after it, past the gap. The client delivers only the next
//!   frame in sequence and drops the rest; on resume the server resends
//!   everything past the client's last ack, in order. The cut is repaired
//!   before evaluation, so the oracle stays quiet and replicas converge —
//!   it leaves traces only in [`SessionStats`].
//! * **The oracle keeps its teeth.** Sessions are always supervised, so no
//!   cell here can show the consistency oracle detecting a broken closure
//!   premise. That power is pinned elsewhere:
//!   `baselines::ring_diverges_in_dense_combat` and
//!   `trade_conservation::broadcast_duplicates_items_under_contention` both
//!   require the oracle to report violations for a protocol that really
//!   diverges. That the injected faults really fire is asserted by the
//!   recovery cells below (`retransmits > 0`, `dups_dropped > 0`,
//!   `session_retransmits > 0`).
//! * **Crash.** Section III-C: a mid-run client disappearance must leave
//!   the survivors' session fully consistent; the liveness supervisor
//!   reaps the dead lane (synthetic goodbye) instead of stranding it.
//! * **Partition.** A supervised client buffers its up-traffic through the
//!   dark window, reconnects under seeded backoff, presents its session
//!   token, and resumes from its last-delivered frame — no delivered frame
//!   is replayed, no undelivered frame is lost.
//!
//! [`SessionStats`]: seve::driver::SessionStats

use seve::core::config::{ProtocolConfig, ServerMode};
use seve::core::pipeline::PipelineServer;
use seve::core::server::SeveSuite;
use seve::driver::{
    FaultPlan, FaultPolicy, LinkPartition, SessionParams, SessionStats, SimConfig, Simulation,
};
use seve::rt::{
    run_client_with, run_inproc_session, run_server_with, ClientReport, ServerReport, SessionConfig,
};
use seve::world::ids::ClientId;
use seve::world::worlds::dining::{DiningConfig, DiningWorkload, DiningWorld};
use seve::world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use seve::world::GameWorld;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- simulator

fn manhattan(clients: usize) -> Arc<ManhattanWorld> {
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

fn dining(philosophers: usize) -> Arc<DiningWorld> {
    Arc::new(DiningWorld::new(DiningConfig {
        philosophers,
        ..DiningConfig::default()
    }))
}

fn sim_run(mode: ServerMode, clients: usize, moves: u32, plan: FaultPlan) -> seve::sim::RunResult {
    let world = manhattan(clients);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(mode));
    let mut wl = ManhattanWorkload::new(&world);
    let sim = SimConfig {
        moves_per_client: moves,
        ..SimConfig::default()
    };
    Simulation::new(world, &suite, sim)
        .with_faults(plan)
        .run(&mut wl)
}

fn sim_dining_run(clients: usize, moves: u32, plan: FaultPlan) -> seve::sim::RunResult {
    let world = dining(clients);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
    let mut wl = DiningWorkload::new(&world);
    let sim = SimConfig {
        moves_per_client: moves,
        ..SimConfig::default()
    };
    Simulation::new(world, &suite, sim)
        .with_faults(plan)
        .run(&mut wl)
}

/// A connection cut: client `c`'s link goes dark for `ms` right after its
/// `after`-th submission, with whatever the server had sent it in flight,
/// and the client then resumes.
fn cut(c: u16, after: u32, ms: u64) -> LinkPartition {
    LinkPartition {
        client: ClientId(c),
        after_submissions: after,
        duration: Duration::from_millis(ms),
    }
}

/// A cut of every one of `clients`, each after a different submission.
fn cuts_plan(clients: u16, ms: u64) -> FaultPlan {
    FaultPlan {
        partitions: (0..clients).map(|c| cut(c, 2 + u32::from(c), ms)).collect(),
        ..FaultPlan::default()
    }
}

#[test]
fn sim_up_disorder_and_duplication_are_absorbed() {
    let plan = FaultPlan {
        up: FaultPolicy {
            duplicate: 0.25,
            reorder: 0.25,
            delay: 0.25,
            ..FaultPolicy::default()
        },
        partitions: vec![cut(3, 5, 150)],
        ..FaultPlan::default()
    };
    let r = sim_run(ServerMode::Basic, 6, 10, plan);
    assert_eq!(r.violations, 0, "Theorem 1 under lossless up-lane faults");
    assert_eq!(r.replay_divergences, 0);
    assert!(
        r.stable_digests.windows(2).all(|w| w[0] == w[1]),
        "complete-world replicas must converge despite disorder"
    );
}

#[test]
fn sim_up_drop_unsubmits_actions_consistently() {
    let lossy = FaultPlan {
        up: FaultPolicy {
            drop: 0.3,
            ..FaultPolicy::default()
        },
        ..FaultPlan::default()
    };
    let r = sim_run(ServerMode::Incomplete, 6, 10, lossy);
    let clean = sim_run(ServerMode::Incomplete, 6, 10, FaultPlan::none());
    // Dropped submissions never serialize: fewer actions resolve…
    assert!(
        r.response_ms.count() < clean.response_ms.count(),
        "up-lane drops must lose responses: {} vs {}",
        r.response_ms.count(),
        clean.response_ms.count()
    );
    // …but everything that did serialize is evaluated consistently.
    assert_eq!(r.violations, 0, "survivor prefix stays consistent");
    assert_eq!(r.replay_divergences, 0);
}

#[test]
fn sim_down_drop_is_recovered_by_supervision() {
    // Every client is cut once, each at a different point of its
    // workload, for longer than a one-way latency.
    let r = sim_run(ServerMode::Basic, 6, 10, cuts_plan(6, 150));
    // The go-back-N resend at each resume refills every hole before
    // evaluation: no violation, no divergence, full convergence — and a
    // non-zero retransmit count proving the cuts actually lost frames.
    assert_eq!(
        r.violations, 0,
        "down-lane frames lost in a cut are repaired"
    );
    assert_eq!(r.replay_divergences, 0);
    assert!(
        r.stable_digests.windows(2).all(|w| w[0] == w[1]),
        "replicas must converge under recovered loss"
    );
    assert!(
        r.session.retransmits > 0,
        "recovery must have resent something"
    );
}

#[test]
fn sim_down_reordering_is_recovered_by_supervision() {
    // The dining table makes every action contend on shared forks, so an
    // inverted prefix that slipped through would shift evaluations. Cuts
    // shorter than a one-way latency let frames sent before them arrive
    // after them, past the gap: the client must drop those until the
    // resume's go-back-N refills the gap in order.
    let r = sim_dining_run(8, 12, cuts_plan(8, 60));
    assert_eq!(
        r.violations, 0,
        "frames past a gap are never evaluated out of order"
    );
    assert_eq!(r.replay_divergences, 0);
    assert!(
        r.stable_digests.windows(2).all(|w| w[0] == w[1]),
        "replicas must converge under recovered reordering"
    );
    assert!(
        r.session.dups_dropped > 0,
        "the client must have dropped frames that arrived past a gap"
    );
}

#[test]
fn sim_midrun_crash_leaves_survivors_consistent() {
    let plan = FaultPlan {
        crashes: vec![(ClientId(1), 4)],
        ..FaultPlan::default()
    };
    let r = sim_run(ServerMode::Basic, 6, 10, plan);
    assert_eq!(r.violations, 0, "Theorem 1 among performed evaluations");
    // Survivors (all but index 1) agree exactly: the complete world is
    // unaffected by one replica going dark (Section III-C).
    let survivors: Vec<u64> = r
        .stable_digests
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, &d)| d)
        .collect();
    assert!(
        survivors.windows(2).all(|w| w[0] == w[1]),
        "surviving replicas must converge"
    );
}

#[test]
fn sim_faulted_run_is_pinned_bit_for_bit() {
    // Every supervision path of the simulator in one run: short cuts that
    // lose frames while later ones are in flight (resume catch-up, frames
    // past the gap dropped), one long partition that heals (resume
    // catch-up, buffered ups), one crash (liveness reap). A change to how
    // the loop weaves links, windows, the in-sequence rule and machines
    // moves the constants.
    let plan = FaultPlan {
        crashes: vec![(ClientId(4), 6)],
        partitions: vec![
            cut(0, 2, 60),
            cut(1, 5, 150),
            cut(2, 3, 700),
            cut(3, 8, 60),
            cut(5, 4, 150),
        ],
        ..FaultPlan::default()
    };
    let r = sim_run(ServerMode::InfoBound, 6, 12, plan);
    assert_eq!(r.violations, 0);
    let fold = r
        .stable_digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &d| {
            (h ^ d).wrapping_mul(0x1_0000_01b3)
        });
    assert_eq!(
        (fold, r.committed_digest, r.total_bytes, r.total_msgs),
        (
            0x6166_4d4b_f6a2_2959,
            Some(0x9ca2_de61_7b73_e30c),
            36_931,
            371
        )
    );
    assert_eq!(
        r.session,
        SessionStats {
            retransmits: 18,
            acks: 200,
            reconnects: 5,
            reaps: 1,
            sheds: 0,
            dups_dropped: 3,
        }
    );
}

#[test]
fn sim_chaos_soak_converges_across_seeds() {
    // Seeded chaos: the up lane duplicating, reordering, and delaying
    // while two clients a seed are cut, across several fault seeds. Every
    // run must end with a quiet oracle and converged replicas, and the
    // supervision layer must actually have coped (the faults were real).
    for seed in [1u16, 7, 42] {
        let plan = FaultPlan {
            up: FaultPolicy {
                seed: u64::from(seed),
                duplicate: 0.1,
                reorder: 0.1,
                delay: 0.1,
                ..FaultPolicy::default()
            },
            partitions: vec![cut(seed % 6, 3, 60), cut((seed + 3) % 6, 6, 150)],
            ..FaultPlan::default()
        };
        let r = sim_dining_run(6, 10, plan);
        assert_eq!(r.violations, 0, "seed {seed}: chaos must be recovered");
        assert_eq!(r.replay_divergences, 0, "seed {seed}");
        assert!(
            r.stable_digests.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: replicas must converge under chaos"
        );
        assert_eq!(r.session.reconnects, 2, "seed {seed}: both cuts resumed");
        assert!(
            r.session.retransmits > 0,
            "seed {seed}: the session layer must have seen the chaos"
        );
    }
}

// ------------------------------------------------------- in-process runtime

fn inproc_cfg(moves: u32, faults: FaultPlan) -> SessionConfig {
    let mut cfg = SessionConfig::fast(moves, Duration::from_millis(20), Duration::from_millis(5));
    // Held-back (reordered/delayed) submissions flush on goodbye, so a
    // drain that cannot complete should give up quickly.
    cfg.drain_grace = Duration::from_millis(500);
    cfg.faults = faults;
    cfg
}

#[test]
fn inproc_absorbed_faults_preserve_consistency() {
    const N: usize = 4;
    const MOVES: u32 = 10;
    let world = dining(N);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Incomplete));
    let plan = FaultPlan {
        up: FaultPolicy {
            duplicate: 0.2,
            reorder: 0.2,
            delay: 0.2,
            ..FaultPolicy::default()
        },
        partitions: vec![cut(1, 5, 60)],
        ..FaultPlan::default()
    };
    let mut report =
        run_inproc_session(Arc::clone(&world), &suite, &inproc_cfg(MOVES, plan), |_| {
            Box::new(DiningWorkload::new(&world))
        });
    assert_eq!(report.submitted(), (N as u64) * (MOVES as u64));
    let (records, violations) = report.cross_check();
    assert!(records > 0);
    assert_eq!(violations, 0, "Theorem 1 under absorbed threaded faults");
    for c in &report.clients {
        assert!(!c.crashed);
        assert_eq!(c.metrics.replay_divergences, 0);
    }
}

#[test]
fn inproc_midrun_crash_is_reaped_and_tolerated() {
    const N: usize = 4;
    const MOVES: u32 = 10;
    let world = dining(N);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
    let plan = FaultPlan {
        crashes: vec![(ClientId(2), 3)],
        ..FaultPlan::default()
    };
    let mut report =
        run_inproc_session(Arc::clone(&world), &suite, &inproc_cfg(MOVES, plan), |_| {
            Box::new(DiningWorkload::new(&world))
        });
    assert!(report.clients[2].crashed, "client 2 must abort mid-run");
    assert_eq!(
        report.submitted(),
        (N as u64 - 1) * (MOVES as u64) + 3,
        "the crashed client stopped after 3 submissions"
    );
    let (_, violations) = report.cross_check();
    assert_eq!(violations, 0, "survivors' session stays consistent");
    // The liveness supervisor must notice the silent disappearance and
    // reap the lane (synthetic goodbye) instead of stranding the session.
    assert!(
        report.server.metrics.stage.session_reaps >= 1,
        "the crashed client's lane must be reaped"
    );
    // Complete-world survivors see the whole serialization before Stop
    // (lanes are FIFO), so their replicas agree exactly.
    let survivors: Vec<u64> = report
        .clients
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 2)
        .map(|(_, c)| c.stable_digest)
        .collect();
    assert!(
        survivors.windows(2).all(|w| w[0] == w[1]),
        "surviving replicas must converge: {survivors:x?}"
    );
}

#[test]
fn inproc_down_loss_is_recovered_by_supervision() {
    const N: usize = 4;
    const MOVES: u32 = 10;
    let world = dining(N);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
    // Every client is cut once, each at a different point of its workload.
    let mut report = run_inproc_session(
        Arc::clone(&world),
        &suite,
        &inproc_cfg(MOVES, cuts_plan(N as u16, 60)),
        |_| Box::new(DiningWorkload::new(&world)),
    );
    assert_eq!(report.submitted(), (N as u64) * (MOVES as u64));
    let (records, violations) = report.cross_check();
    assert!(records > 0);
    // Every client lost frames in a cut, zero visible damage: every hole
    // is refilled by the resume's resend before the replica evaluates past
    // it.
    assert_eq!(violations, 0, "threaded loss in a cut is repaired");
    let digests: Vec<u64> = report.clients.iter().map(|c| c.stable_digest).collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replicas must converge under recovered loss: {digests:x?}"
    );
    assert!(
        report.server.metrics.stage.session_retransmits > 0,
        "recovery must have resent something"
    );
}

#[test]
fn inproc_partition_heals_and_resumes() {
    const N: usize = 4;
    const MOVES: u32 = 10;
    let world = dining(N);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
    let plan = FaultPlan {
        partitions: vec![LinkPartition {
            client: ClientId(1),
            after_submissions: 3,
            duration: Duration::from_millis(250),
        }],
        ..FaultPlan::default()
    };
    let mut report =
        run_inproc_session(Arc::clone(&world), &suite, &inproc_cfg(MOVES, plan), |_| {
            Box::new(DiningWorkload::new(&world))
        });
    // The partitioned client buffered its ups through the dark window and
    // flushed them on resume: nothing was lost.
    assert_eq!(report.submitted(), (N as u64) * (MOVES as u64));
    assert!(!report.clients[1].crashed);
    assert!(
        report.clients[1].session.reconnects >= 1,
        "the partitioned client must have healed"
    );
    let (_, violations) = report.cross_check();
    assert_eq!(violations, 0, "resume must not corrupt the session");
    let digests: Vec<u64> = report.clients.iter().map(|c| c.stable_digest).collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "all replicas (including the healed one) must converge: {digests:x?}"
    );
}

// ------------------------------------------------------------ real TCP

/// Run one real-TCP session: a server thread plus one thread per client,
/// each client faulted per `plan` and supervised per `session`.
fn tcp_session(
    n: usize,
    moves: u32,
    plan: FaultPlan,
    session: SessionParams,
) -> (ServerReport, Vec<ClientReport>) {
    let w = manhattan(n);
    let mut cfg = ProtocolConfig::with_mode(ServerMode::Basic);
    cfg.rtt = seve::net::time::SimDuration::from_ms(20);
    cfg.tick = seve::net::time::SimDuration::from_ms(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let digest = w.initial_state().digest();

    let server = {
        let w = Arc::clone(&w);
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            run_server_with(
                PipelineServer::new(w, cfg),
                listener,
                n,
                Duration::from_millis(5),
                Duration::from_millis(5),
                digest,
                session,
            )
            .expect("server runs")
        })
    };

    let clients: Vec<_> = (0..n)
        .map(|i| {
            let w = Arc::clone(&w);
            let cfg = cfg.clone();
            let plan = plan.clone();
            std::thread::spawn(move || {
                let mut wl = ManhattanWorkload::new(&w);
                run_client_with(
                    Arc::clone(&w),
                    &cfg,
                    addr,
                    ClientId(i as u16),
                    &mut wl,
                    moves,
                    Duration::from_millis(25),
                    &plan,
                    session,
                )
                .expect("client runs")
            })
        })
        .collect();

    let reports = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    (server.join().expect("server thread"), reports)
}

#[test]
fn tcp_down_faults_are_recovered_digest_identical() {
    // One client makes the serialization order deterministic (its own
    // submission order), so the final stable digest must be bit-identical
    // between a run cut mid-way and recovered, and a clean one. The cut
    // comes right after a submission, so the reply to it is in flight and
    // dies with the socket.
    let plan = FaultPlan {
        partitions: vec![cut(0, 5, 60)],
        ..FaultPlan::default()
    };
    let (srv, faulted) = tcp_session(1, 15, plan, SessionParams::fast());
    let (_, clean) = tcp_session(1, 15, FaultPlan::none(), SessionParams::fast());
    assert_eq!(faulted[0].metrics.replay_divergences, 0);
    assert_eq!(
        faulted[0].stable_digest, clean[0].stable_digest,
        "recovered run must end bit-identical to the clean run"
    );
    assert_eq!(faulted[0].session.reconnects, 1, "the client must resume");
    assert!(
        srv.metrics.stage.session_retransmits > 0,
        "the cut must actually have lost frames"
    );
    assert_eq!(
        srv.metrics.stage.pool_outstanding, 0,
        "every pooled egress buffer must be back after shutdown"
    );
}

#[test]
fn tcp_partition_reconnect_resumes_from_last_ack() {
    const N: usize = 3;
    const MOVES: u32 = 10;
    let plan = FaultPlan {
        partitions: vec![LinkPartition {
            client: ClientId(1),
            after_submissions: 3,
            duration: Duration::from_millis(250),
        }],
        ..FaultPlan::default()
    };
    let (srv, reports) = tcp_session(N, MOVES, plan, SessionParams::fast());
    assert!(
        reports[1].session.reconnects >= 1,
        "the partitioned client must dial back in"
    );
    assert!(
        srv.metrics.stage.session_reconnects >= 1,
        "the server must accept the resume"
    );
    for r in &reports {
        assert!(!r.crashed);
        assert_eq!(
            r.metrics.replay_divergences, 0,
            "resume must not replay delivered frames"
        );
    }
    assert_eq!(
        srv.metrics.stage.pool_outstanding, 0,
        "no pooled buffer may leak across a reconnect"
    );
}

#[test]
fn tcp_crashed_client_is_reaped_not_stranded() {
    const N: usize = 3;
    const MOVES: u32 = 10;
    let plan = FaultPlan {
        crashes: vec![(ClientId(2), 3)],
        ..FaultPlan::default()
    };
    // The run completing at all IS the stranded-session fix: the server
    // can only finish once the dead lane is reaped into a synthetic
    // goodbye and its writer + pooled frames are released.
    let (srv, reports) = tcp_session(N, MOVES, plan, SessionParams::fast());
    assert!(reports[2].crashed, "client 2 must abort mid-run");
    assert!(
        srv.metrics.stage.session_reaps >= 1,
        "the dead lane must be reaped by the liveness supervisor"
    );
    for (i, r) in reports.iter().enumerate() {
        if i != 2 {
            assert!(!r.crashed);
            assert_eq!(r.metrics.replay_divergences, 0);
        }
    }
    assert_eq!(
        srv.metrics.stage.pool_outstanding, 0,
        "reaping must recycle the dead client's pooled buffers"
    );
}

#[test]
fn tcp_chaos_soak_stays_consistent_and_leaks_nothing() {
    use seve::core::consistency::ConsistencyOracle;
    for seed in [3u16, 9] {
        let plan = FaultPlan {
            up: FaultPolicy {
                seed: u64::from(seed),
                drop: 0.05,
                duplicate: 0.1,
                reorder: 0.1,
                ..FaultPolicy::default()
            },
            partitions: vec![cut(seed % 3, 2, 60), cut((seed + 1) % 3, 5, 60)],
            ..FaultPlan::default()
        };
        let (srv, mut reports) = tcp_session(3, 8, plan, SessionParams::fast());
        let mut oracle = ConsistencyOracle::new();
        for r in &mut reports {
            assert_eq!(r.metrics.replay_divergences, 0, "seed {seed}");
            for rec in r.metrics.take_eval_records() {
                oracle.observe(&rec);
            }
        }
        assert!(
            oracle.is_consistent(),
            "seed {seed}: Theorem 1 under chaos: {:?}",
            oracle.violations().first()
        );
        assert_eq!(
            reports.iter().map(|r| r.session.reconnects).sum::<u64>(),
            2,
            "seed {seed}: both cut clients must resume"
        );
        assert!(
            srv.metrics.stage.session_reconnects >= 2,
            "seed {seed}: the session layer must have seen the chaos"
        );
        assert_eq!(
            srv.metrics.stage.pool_outstanding, 0,
            "seed {seed}: chaos must not leak pooled buffers"
        );
    }
}

#[test]
fn clean_runs_have_zero_coping_counters() {
    // The flip side of the chaos cells: supervision must be *invisible*
    // when nothing goes wrong. Any non-zero coping counter on a clean run
    // means the session layer is doing work — and spending bytes — it has
    // no business doing, and would break golden-digest identity.
    let r = sim_run(ServerMode::Basic, 4, 8, FaultPlan::none());
    assert_eq!(r.session.coping(), 0, "sim: clean runs cope with nothing");
    assert_eq!(r.session.dups_dropped, 0);

    let world = dining(3);
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::Basic));
    let report = run_inproc_session(
        Arc::clone(&world),
        &suite,
        &inproc_cfg(6, FaultPlan::none()),
        |_| Box::new(DiningWorkload::new(&world)),
    );
    let stage = &report.server.metrics.stage;
    assert_eq!(
        stage.session_retransmits
            + stage.session_reconnects
            + stage.session_reaps
            + stage.session_sheds,
        0,
        "inproc: clean runs cope with nothing"
    );
    for c in &report.clients {
        assert_eq!(c.session.coping(), 0);
        assert_eq!(c.session.dups_dropped, 0);
    }

    // The benchmark's `loopback` session gate at test scale: default
    // parameters, the benchmark's.
    let (srv, reports) = tcp_session(2, 6, FaultPlan::none(), SessionParams::default());
    let stage = &srv.metrics.stage;
    assert_eq!(
        stage.session_retransmits
            + stage.session_reconnects
            + stage.session_reaps
            + stage.session_sheds,
        0,
        "tcp: clean runs cope with nothing"
    );
    for r in &reports {
        assert_eq!(r.session.coping(), 0);
        assert_eq!(r.session.dups_dropped, 0);
    }
    assert!(stage.session_acks > 0, "tcp: the session layer ran");
    assert_eq!(stage.pool_outstanding, 0);
}
