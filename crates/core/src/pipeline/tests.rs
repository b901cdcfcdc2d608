//! Behavioural tests for the pipeline under each policy configuration —
//! migrated from the pre-refactor per-engine test suites so the protocol
//! contracts stay pinned: Algorithm 2 gap replies and trimming, Algorithm
//! 5/6 closure replies, blind-write version filtering and in-order
//! installs, the First/Information Bound push selection and drops, and the
//! grid-indexed candidate selection against the linear scan it replaced.

use super::*;
use crate::config::{ProtocolConfig, ServerMode};
use crate::msg::{Item, Payload, ToClient, ToServer};
use proptest::prelude::{any, prop, prop_assert_eq, proptest, ProptestConfig};
use seve_world::action::Action;
use seve_world::ids::QueuePos;
use seve_world::state::WriteLog;
use seve_world::worlds::dining::{DiningConfig, DiningWorld, HOLDER};

type A = <DiningWorld as GameWorld>::Action;

fn dining(n: usize) -> Arc<DiningWorld> {
    Arc::new(DiningWorld::new(DiningConfig {
        philosophers: n,
        ..DiningConfig::default()
    }))
}

fn setup(n: usize, mode: ServerMode) -> (Arc<DiningWorld>, PipelineServer<DiningWorld>) {
    let world = dining(n);
    let server = PipelineServer::new(Arc::clone(&world), ProtocolConfig::with_mode(mode));
    (world, server)
}

fn items_of(msg: &ToClient<A>) -> &[Item<A>] {
    match msg {
        ToClient::Batch { items } => items,
        _ => panic!("expected batch"),
    }
}

fn submit(
    s: &mut PipelineServer<DiningWorld>,
    world: &Arc<DiningWorld>,
    c: u16,
    seq: u32,
    out: &mut Vec<(ClientId, ToClient<A>)>,
) {
    s.deliver(
        SimTime::ZERO,
        ClientId(c),
        ToServer::Submit {
            action: world.grab(ClientId(c), seq),
        },
        out,
    );
}

// ---- Broadcast routing (Algorithm 2) ----

#[test]
fn broadcast_reply_covers_gap_since_last_submission() {
    let (world, mut s) = setup(4, ServerMode::Basic);
    let mut out = Vec::new();
    // c0 submits: gets [1..=1]. c1 submits: gets [1..=2]. c0 again: [2..=3].
    submit(&mut s, &world, 0, 0, &mut out);
    submit(&mut s, &world, 1, 0, &mut out);
    submit(&mut s, &world, 0, 1, &mut out);
    let sizes: Vec<usize> = out.iter().map(|(_, m)| items_of(m).len()).collect();
    assert_eq!(sizes, vec![1, 2, 2]);
    assert_eq!(out[0].0, ClientId(0));
    assert_eq!(out[1].0, ClientId(1));
    assert_eq!(out[2].0, ClientId(0));
}

#[test]
fn broadcast_entries_are_trimmed_once_everyone_has_them() {
    let (world, mut s) = setup(2, ServerMode::Basic);
    let mut out = Vec::new();
    for round in 0..3u32 {
        for c in 0..2u16 {
            submit(&mut s, &world, c, round, &mut out);
        }
    }
    // After both clients have submitted, everything up to the
    // second-to-last round is delivered to both and trimmed.
    assert!(
        s.state().queue.len() <= 2,
        "queue length {}",
        s.state().queue.len()
    );
}

#[test]
fn broadcast_has_no_push_period_and_no_committed_state() {
    let (_, s) = setup(4, ServerMode::Basic);
    assert!(s.push_period().is_none());
    assert!(s.committed().is_none());
}

// ---- Closure routing (Algorithms 5 + 6) ----

#[test]
fn bootstrap_reply_needs_no_blind_write() {
    // Before anything commits, every client's initial state already holds
    // the committed (version 0) values, so the version filter suppresses
    // the blind write entirely.
    let (world, mut s) = setup(6, ServerMode::Incomplete);
    let mut out = Vec::new();
    submit(&mut s, &world, 2, 0, &mut out);
    assert_eq!(out.len(), 1);
    let items = items_of(&out[0].1);
    assert_eq!(items.len(), 1, "just the action — no blind at bootstrap");
    assert!(matches!(items[0].payload, Payload::Action(_)));
    assert_eq!(items[0].pos, 1);
}

#[test]
fn blind_write_ships_committed_values_the_client_lacks() {
    let (world, mut s) = setup(6, ServerMode::Incomplete);
    let mut out = Vec::new();
    // Philosopher 2 grabs; its completion commits new fork values.
    let a = world.grab(ClientId(2), 0);
    s.deliver(
        SimTime::ZERO,
        ClientId(2),
        ToServer::Submit { action: a.clone() },
        &mut out,
    );
    let outcome = a.evaluate(world.env(), &world.initial_state());
    s.deliver(
        SimTime::ZERO,
        ClientId(2),
        ToServer::Completion {
            pos: 1,
            id: a.id(),
            writes: outcome.writes,
            aborted: false,
        },
        &mut out,
    );
    assert_eq!(s.last_committed(), 1);
    out.clear();
    // Philosopher 3 shares fork 3 with philosopher 2: its reply must carry
    // the committed fork values it has never seen, as a blind.
    submit(&mut s, &world, 3, 0, &mut out);
    let items = items_of(&out[0].1);
    assert_eq!(items.len(), 2, "blind + the action");
    let Payload::Blind(snap) = &items[0].payload else {
        panic!("first item must be the blind write");
    };
    assert!(snap
        .object_set()
        .contains(seve_world::worlds::dining::fork(3, 6)));
    assert_eq!(items[0].pos, 1, "as_of the committed position");
    // And the same client asking again gets no repeat of that blind.
    out.clear();
    submit(&mut s, &world, 3, 1, &mut out);
    let items2 = items_of(&out[0].1);
    assert!(
        items2
            .iter()
            .all(|i| matches!(i.payload, Payload::Action(_))),
        "committed values already held are not re-shipped"
    );
}

#[test]
fn unrelated_submissions_do_not_see_each_other() {
    let (world, mut s) = setup(8, ServerMode::Incomplete);
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    out.clear();
    // Philosopher 4 shares no fork with philosopher 0.
    submit(&mut s, &world, 4, 0, &mut out);
    let actions: Vec<u64> = items_of(&out[0].1)
        .iter()
        .filter(|i| matches!(i.payload, Payload::Action(_)))
        .map(|i| i.pos)
        .collect();
    assert_eq!(actions, vec![2], "only philosopher 4's own grab");
}

#[test]
fn adjacent_submission_pulls_the_conflicting_grab() {
    let (world, mut s) = setup(8, ServerMode::Incomplete);
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    out.clear();
    // Philosopher 1 shares fork 1 with philosopher 0.
    submit(&mut s, &world, 1, 0, &mut out);
    let actions: Vec<u64> = items_of(&out[0].1)
        .iter()
        .filter(|i| matches!(i.payload, Payload::Action(_)))
        .map(|i| i.pos)
        .collect();
    assert_eq!(actions, vec![1, 2], "conflicting grab included, in order");
}

#[test]
fn completions_install_in_order_and_advance_zeta_s() {
    let (world, mut s) = setup(4, ServerMode::Incomplete);
    let mut out = Vec::new();
    for c in 0..2u16 {
        submit(&mut s, &world, c, 0, &mut out);
    }
    // Completion for pos 2 arrives first: held (ζ_S(1) unavailable).
    let mut w2 = WriteLog::new();
    w2.push(seve_world::worlds::dining::fork(2, 4), HOLDER, 1i64.into());
    s.deliver(
        SimTime::ZERO,
        ClientId(1),
        ToServer::Completion {
            pos: 2,
            id: seve_world::ids::ActionId::new(ClientId(1), 0),
            writes: w2,
            aborted: false,
        },
        &mut out,
    );
    assert_eq!(s.last_committed(), 0, "held until the prefix is ready");
    // Completion for pos 1 arrives: both install.
    let mut w1 = WriteLog::new();
    w1.push(seve_world::worlds::dining::fork(0, 4), HOLDER, 0i64.into());
    s.deliver(
        SimTime::ZERO,
        ClientId(0),
        ToServer::Completion {
            pos: 1,
            id: seve_world::ids::ActionId::new(ClientId(0), 0),
            writes: w1,
            aborted: false,
        },
        &mut out,
    );
    assert_eq!(s.last_committed(), 2);
    assert_eq!(
        s.zeta_s()
            .attr(seve_world::worlds::dining::fork(2, 4), HOLDER),
        Some(1i64.into())
    );
}

#[test]
fn aborted_completions_install_as_noops() {
    let (world, mut s) = setup(4, ServerMode::Incomplete);
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    let before = s.zeta_s().digest();
    s.deliver(
        SimTime::ZERO,
        ClientId(0),
        ToServer::Completion {
            pos: 1,
            id: seve_world::ids::ActionId::new(ClientId(0), 0),
            writes: WriteLog::new(),
            aborted: true,
        },
        &mut out,
    );
    assert_eq!(s.last_committed(), 1);
    assert_eq!(s.zeta_s().digest(), before, "no-op installed");
}

// ---- Sphere routing (First / Information Bound) ----

fn push_all_grabs(
    world: &Arc<DiningWorld>,
    s: &mut PipelineServer<DiningWorld>,
    out: &mut Vec<(ClientId, ToClient<A>)>,
) {
    for c in 0..world.num_clients() as u16 {
        submit(s, world, c, 0, out);
    }
}

fn batch_action_positions(msg: &ToClient<A>) -> Vec<QueuePos> {
    match msg {
        ToClient::Batch { items } => items
            .iter()
            .filter(|i| matches!(i.payload, Payload::Action(_)))
            .map(|i| i.pos)
            .collect(),
        _ => vec![],
    }
}

#[test]
fn submissions_get_no_immediate_reply() {
    // What lets a driver wake once per cycle instead of once per message
    // (`NodeDriver::run_server`): a server with a push period queues
    // submissions and speaks on `tick` / `push_tick` only.
    for mode in [ServerMode::FirstBound, ServerMode::InfoBound] {
        let (world, mut s) = setup(4, mode);
        assert!(s.push_period().is_some());
        let mut out = Vec::new();
        for c in 0..4u16 {
            submit(&mut s, &world, c, 0, &mut out);
        }
        assert!(out.is_empty(), "{mode:?} replies only on push cycles");
        assert_eq!(s.state().queue.len(), 4, "yet all four were admitted");
    }
}

#[test]
fn first_bound_pushes_everything_in_the_ring() {
    // Simultaneous grabs around the whole ring: without dropping, the
    // transitive closure hauls the entire ring to every client
    // (Section III-E).
    let (world, mut s) = setup(8, ServerMode::FirstBound);
    let mut out = Vec::new();
    push_all_grabs(&world, &mut s, &mut out);
    assert!(out.is_empty());
    s.push_tick(SimTime::from_ms(60), &mut out);
    // Every client gets a batch; a client whose newest candidate is the
    // last grab receives the *entire* ring as backward transitive support
    // — the unbounded-closure behaviour of Section III-E.
    assert_eq!(out.len(), 8);
    let sizes: Vec<usize> = out
        .iter()
        .map(|(_, m)| batch_action_positions(m).len())
        .collect();
    assert_eq!(
        sizes.iter().max(),
        Some(&8),
        "some client hauls the whole ring"
    );
    let total: usize = sizes.iter().sum();
    assert!(
        total > 8 * 4,
        "closure support inflates pushes well beyond direct candidates: {sizes:?}"
    );
}

#[test]
fn info_bound_drops_chain_breakers_and_pushes_local_arcs() {
    // Same scenario, dropping on: the ring of 64 spaced 10 apart with
    // threshold 45 must break into arcs and every client receives far
    // fewer than 64 actions.
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: 64,
        spacing: 10.0,
        ..DiningConfig::default()
    }));
    let mut cfg = ProtocolConfig::with_mode(ServerMode::InfoBound);
    cfg.threshold = 45.0;
    let mut s = PipelineServer::new(Arc::clone(&world), cfg);
    let mut out = Vec::new();
    push_all_grabs(&world, &mut s, &mut out);
    // Analysis tick: some grabs must drop.
    s.tick(SimTime::from_ms(50), &mut out);
    let drops = out
        .iter()
        .filter(|(_, m)| matches!(m, ToClient::Dropped { .. }))
        .count();
    assert!(drops > 0, "chains around the ring must break");
    assert!(drops < 32, "but only a few drops are needed, got {drops}");
    out.clear();
    s.push_tick(SimTime::from_ms(60), &mut out);
    let max_batch = out
        .iter()
        .map(|(_, m)| batch_action_positions(m).len())
        .max()
        .unwrap_or(0);
    assert!(
        max_batch < 20,
        "chain breaking must localize pushes, got a batch of {max_batch}"
    );
}

#[test]
fn clients_always_receive_their_own_actions() {
    let (world, mut s) = setup(16, ServerMode::InfoBound);
    let mut out = Vec::new();
    submit(&mut s, &world, 5, 0, &mut out);
    s.tick(SimTime::from_ms(50), &mut out);
    s.push_tick(SimTime::from_ms(60), &mut out);
    let mine: Vec<_> = out
        .iter()
        .filter(|(c, m)| *c == ClientId(5) && matches!(m, ToClient::Batch { .. }))
        .collect();
    assert_eq!(mine.len(), 1);
}

#[test]
fn far_clients_are_not_pushed_unrelated_actions() {
    // 64 philosophers, ring circumference 640: opposite sides are far
    // beyond the Eq. 2 sphere for dining parameters.
    let (world, mut s) = setup(64, ServerMode::InfoBound);
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    s.tick(SimTime::from_ms(50), &mut out);
    s.push_tick(SimTime::from_ms(60), &mut out);
    // Client 32 (opposite side) must receive nothing.
    assert!(
        !out.iter().any(|(c, _)| *c == ClientId(32)),
        "far client received an irrelevant action"
    );
    // Client 1 (adjacent, conflicting forks) must receive it.
    assert!(out.iter().any(|(c, _)| *c == ClientId(1)));
}

#[test]
fn unanalyzed_actions_are_not_pushed_when_dropping() {
    let (world, mut s) = setup(4, ServerMode::InfoBound);
    let mut out = Vec::new();
    push_all_grabs(&world, &mut s, &mut out);
    // Push before any analysis tick: nothing may go out.
    s.push_tick(SimTime::from_ms(1), &mut out);
    assert!(out.is_empty());
    s.tick(SimTime::from_ms(50), &mut out);
    out.clear();
    s.push_tick(SimTime::from_ms(60), &mut out);
    assert!(!out.is_empty());
}

#[test]
fn push_period_comes_from_omega() {
    let (_, s) = setup(4, ServerMode::InfoBound);
    assert_eq!(
        s.push_period().unwrap().as_micros(),
        ProtocolConfig::default().push_period().as_micros()
    );
}

// ---- The sliced closure pass against the per-client loop ----

/// Drive an Information Bound server with interest filtering and area
/// culling over the combat world — the configuration whose push cycle meets
/// dropped entries, interest classes and blind writes at once — with real
/// replicas answering, completions arriving two rounds late so chains stay
/// queued across pushes. Returns every message the server emitted, in order,
/// and its final metrics.
fn combat_push_stream(per_client_oracle: bool) -> (Vec<String>, ServerMetrics) {
    use crate::client::SeveClient;
    use crate::engine::ClientNode;
    use seve_world::worlds::combat::{CombatConfig, CombatWorkload, CombatWorld};
    use seve_world::worlds::Workload;
    use std::collections::VecDeque;

    // 70 clients: two mask words, the second mostly empty.
    const CLIENTS: usize = 70;
    const ROUNDS: u64 = 6;
    let world = Arc::new(CombatWorld::new(CombatConfig {
        clients: CLIENTS,
        width: 250.0,
        height: 250.0,
        insect_fraction: 0.25,
        ..CombatConfig::default()
    }));
    let cfg = ProtocolConfig {
        interest_filtering: true,
        velocity_culling: true,
        ..ProtocolConfig::with_mode(ServerMode::InfoBound)
    };
    let mut routing = SphereRouting::new(world.as_ref(), &cfg);
    routing.per_client_oracle = per_client_oracle;
    let mut server = PipelineServer::with_policies(
        Arc::clone(&world),
        cfg.clone(),
        Box::new(routing),
        Box::new(ChainBreak::new()),
        Box::new(OmegaRtt),
    );
    let mut clients: Vec<SeveClient<CombatWorld>> = (0..CLIENTS)
        .map(|c| SeveClient::new(ClientId(c as u16), Arc::clone(&world), &cfg))
        .collect();
    let mut workload = CombatWorkload::new(Arc::clone(&world));
    let mut stream = Vec::new();
    let mut late: VecDeque<Vec<(ClientId, ToServer<_>)>> = VecDeque::from([vec![], vec![]]);
    let (mut down, mut up) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS + 4 {
        let now = SimTime::from_ms(300 * round);
        for (c, msg) in late.pop_front().expect("two rounds queued") {
            server.deliver(now, c, msg, &mut down);
        }
        if round < ROUNDS {
            for (c, client) in clients.iter_mut().enumerate() {
                let id = ClientId(c as u16);
                let action =
                    workload.next_action(id, client.next_seq(), client.optimistic(), now.as_ms());
                if let Some(action) = action {
                    client.submit(now, action, &mut up);
                    for msg in up.drain(..) {
                        server.deliver(now, id, msg, &mut down);
                    }
                }
            }
        }
        server.tick(now, &mut down);
        server.push_tick(now, &mut down);
        let mut replies = Vec::new();
        for (c, msg) in down.drain(..) {
            stream.push(format!("{c:?} {msg:?}"));
            clients[c.index()].deliver(now, msg, &mut up);
            replies.extend(up.drain(..).map(|m| (c, m)));
        }
        late.push_back(replies);
    }
    (stream, server.metrics().clone())
}

#[test]
fn sliced_push_emits_the_per_client_loops_stream() {
    let (sliced, m_sliced) = combat_push_stream(false);
    let (walks, m_walks) = combat_push_stream(true);
    assert_eq!(sliced.len(), walks.len());
    for (i, (a, b)) in sliced.iter().zip(&walks).enumerate() {
        assert_eq!(a, b, "message {i} differs");
    }
    // The run met what the pass has to get right: Algorithm 7 drops in the
    // queue it walks, blind writes for the residues, support beyond the
    // candidates, and a few hundred moves of it.
    assert!(
        m_sliced.submissions >= 300,
        "{} moves",
        m_sliced.submissions
    );
    assert!(m_sliced.drops > 0 && m_sliced.installed > 0);
    assert!(sliced.iter().any(|m| m.contains("Blind")));
    assert_eq!(m_sliced.drops, m_walks.drops);
    assert_eq!(m_sliced.installed, m_walks.installed);
    assert_eq!(m_sliced.compute_us, m_walks.compute_us, "simulated cost");
    assert_eq!(m_sliced.batch_items, m_walks.batch_items);
    assert_eq!(m_sliced.closure_scan_entries, m_walks.closure_scan_entries);
    let (s, w) = (&m_sliced.stage, &m_walks.stage);
    assert_eq!(s.closure_entries_linear, w.closure_entries_linear);
    assert_eq!(s.egress_msgs, w.egress_msgs);
    // The walks also count the dropped entries their cursors step over.
    assert!(s.closure_entries_visited <= w.closure_entries_visited);
    // One stage record per push cycle, against one per client per cycle.
    assert!(s.analyze.events < w.analyze.events);
}

// ---- Push candidate selection against the linear scan ----
//
// The grid-indexed selection must be observationally identical to the
// linear reference scan — same clients, same positions, same order — on
// randomized Manhattan workloads: arbitrary fleet sizes, mid-run push
// progress (real `on_push` calls set `sent` bits and per-client push
// frontiers), dropped entries, and every filter combination (interest masks,
// velocity culling, the dense-crowd interest-radius override).

#[allow(clippy::too_many_arguments)]
fn run_selection(
    seed: u64,
    clients: usize,
    total: usize,
    split: usize,
    mode: ServerMode,
    interest_filtering: bool,
    velocity_culling: bool,
    override_r: Option<f64>,
    drop_mask: &[bool],
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    use seve_world::worlds::manhattan::{ManhattanConfig, ManhattanWorkload, ManhattanWorld};
    use seve_world::worlds::Workload;

    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients,
        walls: 0,
        seed,
        ..ManhattanConfig::default()
    }));
    let cfg = ProtocolConfig {
        interest_filtering,
        velocity_culling,
        interest_radius_override: override_r,
        ..ProtocolConfig::with_mode(mode)
    };
    let mut st = PipelineState::new(world.clone(), cfg.clone());
    let mut routing = SphereRouting::new(world.as_ref(), &cfg);
    let mut wl = ManhattanWorkload::new(&world);
    let mut state = world.initial_state();
    let mut seqs = vec![0u32; clients];
    let mut out = Vec::new();
    for i in 0..total {
        if i == split {
            // A real mid-run push: sets `sent` bits and per-client push
            // frontiers through the production path, so the final
            // comparison sees a mid-cycle server, not a fresh one.
            if let Some(h) = st.queue.last_pos() {
                RoutingPolicy::<ManhattanWorld>::on_push(
                    &mut routing,
                    &mut st,
                    SimTime(i as u64 * 1_000 + 500),
                    h,
                    &mut out,
                );
            }
        }
        let c = ClientId((i % clients) as u16);
        let a = wl.next_action(c, seqs[c.index()], &state, 0).expect("move");
        seqs[c.index()] += 1;
        let o = seve_world::Action::evaluate(&a, world.env(), &state);
        state.apply_writes(&o.writes);
        RoutingPolicy::<ManhattanWorld>::before_enqueue(&mut routing, &mut st, c, &a);
        ingress::admit(&mut st, SimTime(i as u64 * 1_000), a);
    }
    // Mark an arbitrary subset dropped; both selectors must skip them.
    for e in st.queue.iter_mut_rev() {
        if drop_mask.get(e.pos as usize).copied().unwrap_or(false) {
            e.dropped = true;
        }
    }

    let horizon = st.queue.last_pos().unwrap_or(0);
    let now = SimTime(total as u64 * 1_000 + 10_000);
    let mut indexed = Vec::new();
    let mut linear = Vec::new();
    routing.select_candidates(&st, now, horizon, &mut indexed);
    routing.select_candidates_linear(&st, now, horizon, &mut linear);
    (indexed, linear)
}

/// One large window: 400 undelivered entries for 32 clients, with interest
/// filtering and velocity culling on, all selected in one call.
#[test]
fn large_window_selection_matches_linear_scan() {
    let (indexed, linear) = run_selection(
        0x5EED,
        32,
        400,
        0,
        ServerMode::InfoBound,
        true,
        true,
        None,
        &[],
    );
    assert_eq!(indexed, linear);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_selection_matches_linear_scan(
        seed in any::<u64>(),
        clients in 2usize..24,
        total in 1usize..96,
        split_frac in 0.0f64..1.0,
        info_bound in any::<bool>(),
        interest_filtering in any::<bool>(),
        velocity_culling in any::<bool>(),
        override_on in any::<bool>(),
        override_r in 1.0f64..200.0,
        drop_mask in prop::collection::vec(any::<bool>(), 96),
    ) {
        let mode = if info_bound { ServerMode::InfoBound } else { ServerMode::FirstBound };
        let split = ((total as f64) * split_frac) as usize;
        let (indexed, linear) = run_selection(
            seed,
            clients,
            total,
            split,
            mode,
            interest_filtering,
            velocity_culling,
            override_on.then_some(override_r),
            &drop_mask,
        );
        prop_assert_eq!(indexed, linear);
    }
}

// ---- Pipeline-level properties ----

#[test]
fn stage_profile_observes_traffic() {
    let (world, mut s) = setup(6, ServerMode::Incomplete);
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    submit(&mut s, &world, 1, 0, &mut out);
    let stage = &s.metrics().stage;
    assert_eq!(stage.ingress.events, 2, "one ingress per submission");
    assert_eq!(stage.route.events, 2, "one route pass per submission");
    assert_eq!(stage.analyze.events, 2, "one closure scan per reply");
    assert_eq!(stage.egress.events, 2, "one emitted batch per reply");
    assert_eq!(stage.egress_msgs, 2);
    // Per-client replies are never shared: each is its own frame.
    assert_eq!(stage.frames_encoded, 2);
    assert_eq!(stage.frames_reused, 0);
}

/// Every stage's `(events, nanos)`, in pipeline order.
fn stage_totals(s: &PipelineServer<DiningWorld>) -> [(u64, u64); 5] {
    let m = &s.metrics().stage;
    [m.ingress, m.serialize, m.analyze, m.route, m.egress].map(|p| (p.events, p.nanos))
}

/// Run `call` on `s`, returning the stage events it added and checking that
/// the stage time it booked fits inside its wall time.
fn laps_of(
    s: &mut PipelineServer<DiningWorld>,
    call: impl FnOnce(&mut PipelineServer<DiningWorld>),
) -> [u64; 5] {
    let before = stage_totals(s);
    let t = std::time::Instant::now();
    call(s);
    let wall = t.elapsed().as_nanos() as u64;
    let after = stage_totals(s);
    let booked: u64 = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
    assert!(
        booked <= wall,
        "stages booked {booked} ns of a {wall} ns call"
    );
    std::array::from_fn(|i| after[i].0 - before[i].0)
}

#[test]
fn stage_laps_tile_each_call() {
    let (world, mut s) = setup(6, ServerMode::InfoBound);
    let mut out = Vec::new();
    // [ingress, serialize, analyze, route, egress]
    let submit = laps_of(&mut s, |s| {
        s.deliver(
            SimTime::ZERO,
            ClientId(0),
            ToServer::Submit {
                action: world.grab(ClientId(0), 0),
            },
            &mut out,
        );
    });
    assert_eq!(submit, [1, 0, 0, 1, 0], "ingress | route");
    let tick = laps_of(&mut s, |s| {
        s.tick(SimTime::from_ms(10), &mut out);
    });
    assert_eq!(tick, [0, 0, 1, 1, 0], "analyze | route");
    let push = laps_of(&mut s, |s| {
        s.push_tick(SimTime::from_ms(20), &mut out);
    });
    assert_eq!(push, [0, 0, 1, 1, 1], "route | analyze | egress");
    assert!(
        out.iter().any(|(_, m)| matches!(m, ToClient::Batch { .. })),
        "the push cycle shipped the grab"
    );
    // A push cycle with nothing to ship still laps each stage once.
    let idle = laps_of(&mut s, |s| {
        s.push_tick(SimTime::from_ms(30), &mut out);
    });
    assert_eq!(idle, [0, 0, 1, 1, 1]);
}

#[test]
fn broadcast_routing_reuses_frames() {
    // Basic mode broadcasts every submission span to all clients: the
    // frame is built once and every further recipient reuses it, so
    // frames_encoded + frames_reused covers every emitted message.
    let (world, mut s) = setup(4, ServerMode::Basic);
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    // on_submit replies to the issuer only (uncached span); the tick
    // broadcast pushes the span to the other three clients from one
    // cached frame.
    s.tick(SimTime::from_ms(50), &mut out);
    let stage = &s.metrics().stage;
    assert_eq!(
        stage.frames_encoded + stage.frames_reused,
        stage.egress_msgs,
        "every emitted batch is either encoded or reused"
    );
    assert!(
        stage.frames_reused >= 2,
        "broadcast recipients share one encoded frame (got {} reused)",
        stage.frames_reused
    );
}

#[test]
fn custom_policy_assembly_works() {
    // `with_policies` lets a custom variant mix stages: broadcast routing
    // with an explicit no-push policy behaves exactly like Basic mode.
    let world = dining(4);
    let cfg = ProtocolConfig::with_mode(ServerMode::Basic);
    let mut s = PipelineServer::with_policies(
        Arc::clone(&world),
        cfg,
        Box::new(BroadcastRouting::new(4)),
        Box::new(NoDrop),
        Box::new(NoPush),
    );
    let mut out = Vec::new();
    submit(&mut s, &world, 0, 0, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(items_of(&out[0].1).len(), 1);
    assert!(s.push_period().is_none());
}
