//! Focused tests of the client engine's Algorithm 1/3/4 behaviours, driven
//! message by message over the dining world.

use seve_core::client::SeveClient;
use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::engine::ClientNode;
use seve_core::msg::{Item, Payload, ToClient, ToServer};
use seve_net::time::SimTime;
use seve_world::action::Action;
use seve_world::ids::ClientId;
use seve_world::worlds::dining::{fork, DiningConfig, DiningWorld, HOLDER};
use seve_world::GameWorld;
use std::sync::Arc;

type Client = SeveClient<DiningWorld>;
type Down = ToClient<<DiningWorld as GameWorld>::Action>;

fn setup(mode: ServerMode) -> (Arc<DiningWorld>, Client) {
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: 5,
        ..DiningConfig::default()
    }));
    let client = SeveClient::new(
        ClientId(1),
        Arc::clone(&world),
        &ProtocolConfig::with_mode(mode),
    );
    (world, client)
}

fn batch(items: Vec<Item<<DiningWorld as GameWorld>::Action>>) -> Down {
    ToClient::Batch {
        items: items.into(),
    }
}

#[test]
fn submit_applies_optimistically_and_sends() {
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    let grab = world.grab(ClientId(1), 0);
    let cost = c.submit(SimTime::ZERO, grab, &mut out);
    assert!(cost > 0);
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0], ToServer::Submit { .. }));
    // Optimistic state shows the forks taken; stable state does not.
    assert_eq!(c.optimistic().attr(fork(1, 5), HOLDER), Some(1i64.into()));
    assert_eq!(c.stable().attr(fork(1, 5), HOLDER), Some((-1i64).into()));
    assert_eq!(c.pending_len(), 1);
}

#[test]
fn own_action_return_matching_optimistic_pops_without_reconcile() {
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    let grab = world.grab(ClientId(1), 0);
    c.submit(SimTime::ZERO, grab.clone(), &mut out);
    out.clear();
    c.deliver(
        SimTime::from_ms(238),
        batch(vec![Item::action(1, grab)]),
        &mut out,
    );
    assert_eq!(c.pending_len(), 0);
    assert_eq!(c.metrics().reconciliations, 0);
    assert_eq!(c.metrics().response_ms.count(), 1);
    assert!((c.metrics().response_ms.mean() - 238.0).abs() < 1e-9);
    // Completion sent for the own action (incomplete-world mode).
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0], ToServer::Completion { pos: 1, .. }));
    // Stable caught up with optimistic.
    assert_eq!(c.stable().attr(fork(1, 5), HOLDER), Some(1i64.into()));
}

#[test]
fn conflicting_prior_action_triggers_reconciliation() {
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    // Client 1 grabs forks 1 & 2 optimistically...
    let mine = world.grab(ClientId(1), 0);
    c.submit(SimTime::ZERO, mine.clone(), &mut out);
    assert_eq!(c.optimistic().attr(fork(2, 5), HOLDER), Some(1i64.into()));
    // ...but philosopher 2's grab (forks 2 & 3) serialized FIRST.
    let theirs = world.grab(ClientId(2), 0);
    out.clear();
    c.deliver(
        SimTime::from_ms(238),
        batch(vec![Item::action(1, theirs), Item::action(2, mine)]),
        &mut out,
    );
    // The stable evaluation of our grab aborts (fork 2 taken): mismatch →
    // Algorithm 3 rolls the optimistic state back.
    assert_eq!(c.metrics().reconciliations, 1);
    assert_eq!(c.pending_len(), 0);
    assert_eq!(
        c.optimistic().attr(fork(2, 5), HOLDER),
        Some(2i64.into()),
        "optimistic fork ownership rolled back to the serialized truth"
    );
    assert_eq!(
        c.optimistic().attr(fork(1, 5), HOLDER),
        Some((-1i64).into()),
        "our aborted grab releases fork 1 optimistically too"
    );
    // Completion reports the abort.
    assert!(out.iter().any(|m| matches!(
        m,
        ToServer::Completion {
            pos: 2,
            aborted: true,
            ..
        }
    )));
}

#[test]
fn remote_writes_do_not_touch_pending_objects_in_optimistic_state() {
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    // Our grab is pending: forks 1 & 2 are in WS(Q).
    c.submit(SimTime::ZERO, world.grab(ClientId(1), 0), &mut out);
    // A remote action on the far side of the ring (philosopher 3: forks
    // 3 & 4) — applies to both states.
    let far = world.grab(ClientId(3), 0);
    c.deliver(
        SimTime::from_ms(100),
        batch(vec![Item::action(1, far)]),
        &mut out,
    );
    assert_eq!(c.stable().attr(fork(3, 5), HOLDER), Some(3i64.into()));
    assert_eq!(c.optimistic().attr(fork(3, 5), HOLDER), Some(3i64.into()));
    // Our pending forks stay optimistically ours ("items awaiting
    // permanent values from the server").
    assert_eq!(c.optimistic().attr(fork(1, 5), HOLDER), Some(1i64.into()));
    assert_eq!(c.optimistic().attr(fork(2, 5), HOLDER), Some(1i64.into()));
    assert_eq!(c.pending_len(), 1, "own action still pending");
}

#[test]
fn drop_notice_rolls_back_the_optimistic_effects() {
    let (world, mut c) = setup(ServerMode::InfoBound);
    let mut out = Vec::new();
    let grab = world.grab(ClientId(1), 0);
    let id = grab.id();
    c.submit(SimTime::ZERO, grab, &mut out);
    assert_eq!(c.optimistic().attr(fork(1, 5), HOLDER), Some(1i64.into()));
    c.deliver(
        SimTime::from_ms(150),
        ToClient::Dropped { id, pos: 1 },
        &mut out,
    );
    assert_eq!(c.metrics().dropped, 1);
    assert_eq!(c.pending_len(), 0);
    assert_eq!(
        c.optimistic().attr(fork(1, 5), HOLDER),
        Some((-1i64).into()),
        "dropped action's optimistic writes rolled back"
    );
    assert_eq!(c.metrics().drop_notice_ms.count(), 1);
    assert_eq!(
        c.metrics().response_ms.count(),
        0,
        "drops are not responses"
    );
}

#[test]
fn basic_mode_sends_no_completions() {
    let (world, mut c) = setup(ServerMode::Basic);
    let mut out = Vec::new();
    let grab = world.grab(ClientId(1), 0);
    c.submit(SimTime::ZERO, grab.clone(), &mut out);
    out.clear();
    c.deliver(
        SimTime::from_ms(238),
        batch(vec![Item::action(1, grab)]),
        &mut out,
    );
    assert!(out.is_empty(), "no ζ_S exists in basic mode");
    assert_eq!(c.metrics().completions_sent, 0);
}

#[test]
fn redundant_mode_completes_remote_actions_too() {
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: 5,
        ..DiningConfig::default()
    }));
    let mut cfg = ProtocolConfig::with_mode(ServerMode::InfoBound);
    cfg.redundant_completions = true;
    let mut c: Client = SeveClient::new(ClientId(1), Arc::clone(&world), &cfg);
    let mut out = Vec::new();
    let remote = world.grab(ClientId(3), 0);
    c.deliver(
        SimTime::from_ms(100),
        batch(vec![Item::action(1, remote)]),
        &mut out,
    );
    assert!(matches!(out[0], ToServer::Completion { pos: 1, .. }));
}

#[test]
fn gc_notice_trims_the_replay_log() {
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    for (i, who) in [0u16, 2, 3].into_iter().enumerate() {
        let a = world.grab(ClientId(who), 0);
        c.deliver(
            SimTime::from_ms(100 + i as u64),
            batch(vec![Item::action((i + 1) as u64, a)]),
            &mut out,
        );
    }
    let digest_before = c.stable().digest();
    c.deliver(SimTime::from_ms(400), ToClient::GcUpTo { pos: 2 }, &mut out);
    assert_eq!(c.stable().digest(), digest_before, "gc never changes ζ_CS");
}

#[test]
fn eval_records_track_positions_and_digests() {
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    let a = world.grab(ClientId(2), 0);
    let expected = a.evaluate(world.env(), &world.initial_state());
    c.deliver(
        SimTime::from_ms(100),
        batch(vec![Item::action(1, a)]),
        &mut out,
    );
    let recs = c.metrics_mut().take_eval_records();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].pos, 1);
    assert_eq!(recs[0].digest, expected.digest());
    assert_eq!(recs[0].missing_reads, 0);
}

#[test]
fn eq2_bound_holds_for_every_pushed_action() {
    // Emergent Eq. 2: every action the Information Bound server pushes to a
    // client lies within the Eq. 1 sphere of the client plus at most the
    // chain threshold (support chains cannot stretch farther — Algorithm 7
    // dropped anything that would).
    use seve_core::engine::ServerNode;
    use seve_core::pipeline::PipelineServer;
    use seve_world::worlds::dining::DiningWorld as DW;

    let world = Arc::new(DW::new(DiningConfig {
        philosophers: 64,
        spacing: 10.0,
        ..DiningConfig::default()
    }));
    let cfg = ProtocolConfig::with_mode(ServerMode::InfoBound);
    let mut server: PipelineServer<DW> = PipelineServer::new(Arc::clone(&world), cfg.clone());
    let mut down = Vec::new();
    for i in 0..64u16 {
        server.deliver(
            SimTime::ZERO,
            ClientId(i),
            ToServer::Submit {
                action: world.grab(ClientId(i), 0),
            },
            &mut down,
        );
    }
    server.tick(SimTime::from_ms(50), &mut down);
    down.clear();
    server.push_tick(SimTime::from_ms(60), &mut down);

    let sem = world.semantics();
    let eq1 = 2.0 * sem.max_speed * cfg.rtt.as_secs_f64() * (1.0 + cfg.omega)
        + sem.client_radius
        + sem.default_action_radius;
    let bound = eq1 + cfg.threshold;
    let env = world.env();
    for (client, msg) in &down {
        let ToClient::Batch { items } = msg else {
            continue;
        };
        let client_pos = env.seat(client.index());
        for item in items.iter() {
            if let Payload::Action(a) = &item.payload {
                if a.issuer() == *client {
                    continue; // own actions are always delivered
                }
                let d = a.influence().center.dist(client_pos);
                assert!(
                    d <= bound + 1e-9,
                    "action at distance {d:.1} exceeds the Eq. 2 bound {bound:.1}"
                );
            }
        }
    }
}

#[test]
fn gc_notices_keep_replay_logs_bounded() {
    // Drive a client with many GC'd rounds: the log length must stay at
    // the gc window, not grow with history.
    let (world, mut c) = setup(ServerMode::Incomplete);
    let mut out = Vec::new();
    for round in 0..200u64 {
        let who = ClientId((round % 4) as u16 + 2);
        // Actions from other philosophers on the far side (never ours).
        let a = world.grab(who, round as u32);
        c.deliver(
            SimTime::from_ms(round * 10),
            batch(vec![Item::action(round + 1, a)]),
            &mut out,
        );
        if round % 16 == 15 {
            c.deliver(
                SimTime::from_ms(round * 10 + 1),
                ToClient::GcUpTo { pos: round + 1 },
                &mut out,
            );
        }
    }
    assert!(
        c.replay_log_len() <= 16,
        "log length {} must be bounded by the GC window",
        c.replay_log_len()
    );
}

/// SplitMix64: the storm below must replay identically on every commit.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a storm run leaves behind: the counters the protocol can see, the
/// replay log's work counters, and digests of both states and of the drained
/// `EvalRecord` stream.
#[derive(Debug, PartialEq, Eq)]
struct StormTotals {
    evaluations: u64,
    reconciliations: u64,
    replay_rebuilds: u64,
    commute_hits: u64,
    entries_replayed: u64,
    checkpoint_hits: u64,
    eval_records: usize,
    eval_stream_digest: u64,
    stable_digest: u64,
    optimistic_digest: u64,
}

/// A seeded out-of-order storm over a 24-seat ring, driven into client 1 one
/// item a message: every fourth position arrives up to twelve positions late
/// (far seats commute and splice, neighbouring seats reconcile sparsely),
/// blind writes of already-passed positions interleave (every one resyncs),
/// own grabs race the neighbours' (their optimistic outcome is then wrong and
/// Algorithm 3 runs), some own actions are dropped, and GC notices trim the
/// log. After every `deliver` that resyncs, ζ_CO must equal the reference
/// construction — a clone of ζ_CS with Q re-applied on top.
fn run_storm() -> StormTotals {
    const SEATS: usize = 24;
    const POSITIONS: u64 = 600;
    let me = ClientId(1);
    let world = Arc::new(DiningWorld::new(DiningConfig {
        philosophers: SEATS,
        ..DiningConfig::default()
    }));
    let cfg = ProtocolConfig::with_mode(ServerMode::Incomplete);
    let mut c: Client = SeveClient::new(me, Arc::clone(&world), &cfg);
    // The seed the pinned totals below were recorded with.
    let mut rng = Mix(0x5E4E_2009 ^ 32);
    let mut out = Vec::new();

    // The serialized stream: each seat alternates grab / release. Our own
    // actions are submitted when their turn in the stream is decided, which
    // is before any of the stream is delivered — Q stays deep.
    let mut seqs = [0u32; SEATS];
    let mut truth = world.initial_state();
    let mut truth_at = vec![truth.clone()];
    let mut queue: Vec<<DiningWorld as GameWorld>::Action> = Vec::new();
    let mut stream = Vec::new();
    let mut dropped = Vec::new();
    for pos in 1..=POSITIONS {
        // A third of the traffic is ours or a neighbour's, so our grabs race.
        let seat = match rng.below(3) {
            0 => rng.below(3),
            _ => rng.below(SEATS as u64),
        } as u16;
        let seq = seqs[seat as usize];
        seqs[seat as usize] += 1;
        let action = if seq % 2 == 0 {
            world.grab(ClientId(seat), seq)
        } else {
            world.release(ClientId(seat), seq)
        };
        if ClientId(seat) == me {
            c.submit(SimTime::from_ms(pos), action.clone(), &mut out);
            queue.push(action.clone());
            if rng.below(8) == 0 {
                // Algorithm 7 drops it: it never gets a position.
                dropped.push((pos, action.id()));
                continue;
            }
        }
        truth.apply_writes(&action.evaluate(world.env(), &truth).writes);
        truth_at.push(truth.clone());
        stream.push(action);
    }

    // Arrival schedule: position order, every fourth up to twelve late.
    let mut arrivals: Vec<(u64, u64)> = (1..=stream.len() as u64)
        .map(|pos| {
            let late = if pos % 4 == 0 { 1 + rng.below(12) } else { 0 };
            (2 * (pos + late) + u64::from(late > 0), pos)
        })
        .collect();
    arrivals.sort_unstable();

    let mut delivered = std::collections::BTreeSet::new();
    let mut resyncs_checked = 0u64;
    let mut drops = dropped.into_iter().peekable();
    for (step, &(_, pos)) in arrivals.iter().enumerate() {
        let now = SimTime::from_ms(1_000 + step as u64);
        let action = stream[pos as usize - 1].clone();
        let mut msgs = vec![batch(vec![Item::action(pos, action.clone())])];
        if drops.peek().is_some_and(|&(at, _)| at <= pos) {
            let (_, id) = drops.next().expect("peeked");
            msgs.push(ToClient::Dropped { id, pos: 0 });
            queue.retain(|a| a.id() != id);
        }
        if rng.below(5) == 0 && pos > 3 {
            // Committed values of two neighbouring forks as of a position the
            // replica is already past (or, rarely, one it has GC'd).
            let as_of = pos - 1 - rng.below(pos.min(40) - 1);
            let f = rng.below(SEATS as u64) as usize;
            let set = [fork(f, SEATS), fork(f + 1, SEATS)].into_iter().collect();
            let snap = truth_at[as_of as usize].snapshot_of(&set);
            msgs.push(batch(vec![Item::blind(as_of, snap)]));
        }
        delivered.insert(pos);
        if step % 16 == 15 {
            let prefix = (1..).take_while(|p| delivered.contains(p)).last();
            msgs.extend(prefix.map(|pos| ToClient::GcUpTo { pos }));
        }
        for msg in msgs {
            if action.issuer() == me && matches!(msg, ToClient::Batch { .. }) {
                queue.retain(|a| a.id() != action.id());
            }
            let before = c.metrics().replay_rebuilds;
            c.deliver(now, msg, &mut out);
            if c.metrics().replay_rebuilds > before {
                let mut reference = c.stable().clone();
                for a in &queue {
                    let o = a.evaluate(world.env(), &reference);
                    reference.apply_writes(&o.writes);
                }
                assert_eq!(*c.optimistic(), reference, "step {step} pos {pos}");
                assert_eq!(c.optimistic().digest(), reference.digest());
                resyncs_checked += 1;
            }
        }
    }
    assert_eq!(c.pending_len(), queue.len(), "the test tracks Q exactly");
    assert_eq!(resyncs_checked, c.metrics().replay_rebuilds);

    let records = c.metrics_mut().take_eval_records();
    let eval_stream_digest = records.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
        [
            r.pos,
            u64::from(r.id.client.0) << 32 | u64::from(r.id.seq),
            r.digest,
            r.input_digest,
            u64::from(r.missing_reads),
        ]
        .iter()
        .fold(h, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3))
    });
    let m = c.metrics();
    StormTotals {
        evaluations: m.evaluations,
        reconciliations: m.reconciliations,
        replay_rebuilds: m.replay_rebuilds,
        commute_hits: m.replay_commute_hits,
        entries_replayed: m.replay_entries_replayed,
        checkpoint_hits: m.replay_checkpoint_hits,
        eval_records: records.len(),
        eval_stream_digest,
        stable_digest: c.stable().digest(),
        optimistic_digest: c.optimistic().digest(),
    }
}

#[test]
fn out_of_order_storm_resyncs_to_the_reference_and_keeps_its_counts() {
    // Pinned from commit 9800c05 (before ζ_CO became a pointer-diff and the
    // log lent its outcomes), which this very test reproduced bit for bit:
    // any drift in what the replica evaluates, reconciles or feeds the
    // oracle shows up here. Re-pin only for a deliberate protocol change.
    let k32 = StormTotals {
        evaluations: 9199,
        reconciliations: 20,
        replay_rebuilds: 185,
        commute_hits: 88,
        entries_replayed: 473,
        checkpoint_hits: 7,
        eval_records: 588,
        eval_stream_digest: 12080562890167148842,
        stable_digest: 14050226144950690964,
        optimistic_digest: 14050226144950690964,
    };
    assert_eq!(run_storm(), k32);
    // Every path fired: splices, sparse reconciles, Algorithm 3.
    assert!(k32.commute_hits > 20 && k32.entries_replayed > 0 && k32.reconciliations > 5);
    assert!(k32.replay_rebuilds > k32.commute_hits);
}
