//! Property-based tests for the protocol machinery: Algorithm 6 against a
//! naive fixed-point closure, Algorithm 7's chain invariants, the inverted
//! write index (indexed-vs-linear differentials and postings-list
//! maintenance), and the replay log against in-order reference application.

use proptest::prelude::*;
use seve_core::closure::{
    analyze_new_actions, analyze_new_actions_linear, closure_for, closure_for_linear, ActionQueue,
    AnalyzeScratch, SlicedClosure,
};
use seve_core::replay::ReplayLog;
use seve_net::time::SimTime;
use seve_world::action::{Action, Influence, Outcome};
use seve_world::geometry::Vec2;
use seve_world::ids::{ActionId, AttrId, ClientId, ObjectId, QueuePos};
use seve_world::objset::ObjectSet;
use seve_world::state::{Snapshot, WorldState, WriteLog};
use seve_world::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A synthetic action over small object ids with an explicit center. Each
/// action reads and writes one of a few attributes, so interleavings
/// exercise cross-attribute shadowing: attribute-granular sparse masking
/// against object-granular checkpoint deltas and blind snapshots.
#[derive(Clone, Debug)]
struct GenAction {
    id: ActionId,
    rs: ObjectSet,
    ws: ObjectSet,
    attr: AttrId,
    center: Vec2,
}

impl Action for GenAction {
    type Env = ();
    fn id(&self) -> ActionId {
        self.id
    }
    fn read_set(&self) -> &ObjectSet {
        &self.rs
    }
    fn write_set(&self) -> &ObjectSet {
        &self.ws
    }
    fn influence(&self) -> Influence {
        Influence::sphere(self.center, 1.0)
    }
    fn evaluate(&self, _e: &(), state: &WorldState) -> Outcome {
        // Sum the read values, write (sum + 1) to every write-set object:
        // genuinely order- and input-sensitive.
        let sum: i64 = self
            .rs
            .iter()
            .filter_map(|o| state.attr(o, self.attr).and_then(|v| v.as_i64()))
            .sum();
        let mut w = WriteLog::new();
        for o in self.ws.iter() {
            w.push(o, self.attr, (sum + 1).into());
        }
        Outcome::ok(w)
    }
    fn wire_bytes(&self) -> u32 {
        16
    }
}

/// Attributes the generated actions pick from (> 1 so same-object,
/// different-attribute interleavings occur; the declared read/write sets
/// stay object-granular, as in the protocol).
const GEN_ATTRS: u16 = 3;

/// Strategy: an action with reads ⊇ writes over object ids < 8, on one of
/// [`GEN_ATTRS`] attributes, placed on a line so distances are easy to
/// reason about.
fn gen_action(client: u16, seq: u32) -> impl Strategy<Value = GenAction> {
    (
        prop::collection::btree_set(0u32..8, 1..4),
        prop::collection::btree_set(0u32..8, 0..2),
        0u16..GEN_ATTRS,
        0.0f64..200.0,
    )
        .prop_map(move |(reads, extra_writes, attr, x)| {
            let ws: ObjectSet = reads
                .iter()
                .take(1)
                .chain(extra_writes.intersection(&reads))
                .map(|&i| ObjectId(i))
                .collect();
            let rs: ObjectSet = reads.iter().map(|&i| ObjectId(i)).collect();
            GenAction {
                id: ActionId::new(ClientId(client), seq),
                rs,
                ws,
                attr: AttrId(attr),
                center: Vec2::new(x, 0.0),
            }
        })
}

fn gen_actions(n: usize) -> impl Strategy<Value = Vec<GenAction>> {
    prop::collection::vec((0u16..6, any::<u32>()), n..n + 1).prop_flat_map(|metas| {
        metas
            .into_iter()
            .enumerate()
            .map(|(i, (c, _))| gen_action(c, i as u32))
            .collect::<Vec<_>>()
    })
}

/// Naive reference for Algorithm 6: fixed-point closure over "writes
/// intersect the accumulated read support", scanning any order until
/// stable, restricted to positions ≤ the newest candidate and entries not
/// already sent to the client.
fn naive_closure(
    entries: &[(
        QueuePos,
        &GenAction,
        bool, /* sent-to-client */
        bool, /* dropped */
    )],
    candidates: &[QueuePos],
) -> (BTreeSet<QueuePos>, usize) {
    let newest = match candidates.last() {
        Some(&p) => p,
        None => return (BTreeSet::new(), 0),
    };
    // Support accumulates exactly as the backwards scan does: walk from
    // newest to oldest, a single pass (the fixed point of a backwards scan
    // is the scan itself because writers only affect older support).
    let mut s = ObjectSet::new();
    let mut take = BTreeSet::new();
    // How often an entry the client already holds satisfied part of the
    // support (the `S \ WS` step).
    let mut subtracts = 0;
    for &(pos, a, sent, dropped) in entries.iter().rev() {
        if pos > newest {
            continue;
        }
        if dropped {
            continue;
        }
        let is_cand = candidates.contains(&pos);
        let conflicts = a.ws.intersects(&s);
        if !is_cand && !conflicts {
            continue;
        }
        if sent {
            if conflicts {
                s.subtract(&a.ws);
                subtracts += 1;
            }
        } else {
            take.insert(pos);
            s.union_with(&a.rs);
        }
    }
    (take, subtracts)
}

proptest! {
    // 512 cases keep the whole file under a second while giving the
    // replay-oracle equivalence tests enough interleavings to reliably hit
    // same-object cross-attribute shadowing across checkpoint windows (at
    // 128 the known stale-later-checkpoint regression goes undetected).
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn closure_matches_reference(
        actions in gen_actions(12),
        sent_mask in prop::collection::vec(any::<bool>(), 12),
        cand_mask in prop::collection::vec(any::<bool>(), 12)
    ) {
        let client = ClientId(0);
        let mut queue: ActionQueue<GenAction> = ActionQueue::new();
        let mut meta = Vec::new();
        for (i, a) in actions.iter().enumerate() {
            let pos = queue.push(a.clone(), SimTime::ZERO);
            if sent_mask[i] {
                queue.get_mut(pos).unwrap().sent.insert(client);
            }
            meta.push((pos, a, sent_mask[i], false));
        }
        // Candidates: unsent positions selected by the mask.
        let candidates: Vec<QueuePos> = meta
            .iter()
            .filter(|&&(pos, _, sent, _)| cand_mask[(pos - 1) as usize] && !sent)
            .map(|&(pos, _, _, _)| pos)
            .collect();

        let (expected, _) = naive_closure(&meta, &candidates);
        let result = closure_for(&mut queue, client, &candidates);
        let got: BTreeSet<QueuePos> = result.send.iter().copied().collect();
        prop_assert_eq!(got, expected);
        // Ascending order and sent-bits updated.
        prop_assert!(result.send.windows(2).all(|w| w[0] < w[1]));
        for &pos in &result.send {
            prop_assert!(queue.get(pos).unwrap().sent.contains(client));
        }
    }

    #[test]
    fn analysis_drops_iff_chain_reaches_beyond_threshold(
        actions in gen_actions(10),
        threshold in 10.0f64..150.0
    ) {
        let mut queue: ActionQueue<GenAction> = ActionQueue::new();
        for a in &actions {
            queue.push(a.clone(), SimTime::ZERO);
        }
        let analysis = analyze_new_actions(&mut queue, 1, threshold, &mut AnalyzeScratch::new());
        // Reference: replay the sequential decision process.
        let mut valid: Vec<bool> = Vec::new();
        let mut expected_drops = Vec::new();
        for (i, a) in actions.iter().enumerate() {
            let mut s = a.rs.clone();
            let mut invalid = false;
            for j in (0..i).rev() {
                if !valid[j] {
                    continue;
                }
                if actions[j].ws.intersects(&s) {
                    if a.center.dist(actions[j].center) > threshold {
                        invalid = true;
                        break;
                    }
                    s.union_with(&actions[j].rs);
                }
            }
            valid.push(!invalid);
            if invalid {
                expected_drops.push((i + 1) as QueuePos);
            }
        }
        prop_assert_eq!(analysis.dropped, expected_drops);
    }

    #[test]
    fn indexed_closure_matches_linear(
        actions in gen_actions(14),
        sent_mask in prop::collection::vec(any::<bool>(), 14),
        dropped_mask in prop::collection::vec(any::<bool>(), 14),
        pops in 0usize..6,
        cand_mask in prop::collection::vec(any::<bool>(), 14),
    ) {
        let client = ClientId(1);
        // Two identically constructed queues (both implementations mutate
        // `sent` bits, so each gets its own copy).
        let build = || {
            let mut q: ActionQueue<GenAction> = ActionQueue::new();
            for (i, a) in actions.iter().enumerate() {
                let pos = q.push(a.clone(), SimTime::ZERO);
                let e = q.get_mut(pos).unwrap();
                if sent_mask[i] {
                    e.sent.insert(client);
                }
                e.dropped = dropped_mask[i];
            }
            for _ in 0..pops {
                q.pop_front();
            }
            q
        };
        let mut q_idx = build();
        let mut q_lin = build();
        // Candidates as the routing stage produces them: live, unsent,
        // undropped positions.
        let candidates: Vec<QueuePos> = (q_idx.first_pos()..=q_idx.last_pos().unwrap())
            .filter(|&p| {
                let i = (p - 1) as usize;
                cand_mask[i] && !sent_mask[i] && !dropped_mask[i]
            })
            .collect();
        let ri = closure_for(&mut q_idx, client, &candidates);
        let rl = closure_for_linear(&mut q_lin, client, &candidates);
        prop_assert_eq!(&ri.send, &rl.send);
        prop_assert_eq!(&ri.blind_set, &rl.blind_set);
        prop_assert_eq!(ri.scanned, rl.scanned);
        prop_assert!(ri.visited <= rl.visited);
        for p in q_idx.first_pos()..=q_idx.last_pos().unwrap() {
            prop_assert_eq!(
                q_idx.get(p).unwrap().sent.contains(client),
                q_lin.get(p).unwrap().sent.contains(client)
            );
        }
    }

    // Not a test by itself: `indexed_analysis_matches_linear` runs the
    // cases and then checks they were not vacuous.
    fn analysis_tick_cases(
        actions in gen_actions(12),
        dropped_mask in prop::collection::vec(any::<bool>(), 12),
        pops in 0usize..5,
        split in 6usize..12,
        from_off in 0u64..6,
        threshold in 10.0f64..150.0,
    ) {
        let build = || {
            let mut q: ActionQueue<GenAction> = ActionQueue::new();
            for (i, a) in actions[..split].iter().enumerate() {
                let pos = q.push(a.clone(), SimTime::ZERO);
                // Pre-dropped entries model earlier ticks' verdicts.
                q.get_mut(pos).unwrap().dropped = dropped_mask[i];
            }
            for _ in 0..pops {
                q.pop_front();
            }
            q
        };
        let mut q_idx = build();
        let mut q_lin = build();
        let mut scratch = AnalyzeScratch::new();
        let first_from = q_idx.first_pos() + from_off.min(q_idx.len() as u64 - 1);
        let second_from = q_idx.last_pos().unwrap() + 1;
        for (tick, from) in [first_from, second_from].into_iter().enumerate() {
            if tick == 1 {
                // The second tick's actions arrive after the first ran.
                for a in &actions[split..] {
                    q_idx.push(a.clone(), SimTime::ZERO);
                    q_lin.push(a.clone(), SimTime::ZERO);
                }
            }
            let ai = analyze_new_actions(&mut q_idx, from, threshold, &mut scratch);
            let al = analyze_new_actions_linear(&mut q_lin, from, threshold);
            prop_assert_eq!(&ai.dropped, &al.dropped, "tick {}", tick);
            prop_assert_eq!(&ai.chain_lens, &al.chain_lens, "tick {}", tick);
            prop_assert_eq!(ai.scanned, al.scanned, "tick {}", tick);
            prop_assert!(ai.visited <= al.visited);
            // Drop marks applied identically.
            for p in q_idx.first_pos()..=q_idx.last_pos().unwrap() {
                prop_assert_eq!(q_idx.get(p).unwrap().dropped, q_lin.get(p).unwrap().dropped);
            }
            TICK_DROPS[tick].fetch_add(usize::from(!ai.dropped.is_empty()), Ordering::Relaxed);
        }
    }

    #[test]
    fn index_matches_rebuild_under_interleaving(
        actions in gen_actions(16),
        // Per step: 0 = push next action, 1 = pop_front, 2 = mark a live
        // entry dropped (drops do NOT remove postings — dropped entries
        // stay indexed and are skipped at traversal time).
        ops in prop::collection::vec(0u8..3, 1..32),
        pick in prop::collection::vec(0usize..1024, 32),
    ) {
        let mut q: ActionQueue<GenAction> = ActionQueue::new();
        let mut next = 0usize;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                0 => {
                    if next < actions.len() {
                        q.push(actions[next].clone(), SimTime::ZERO);
                        next += 1;
                    }
                }
                1 => {
                    q.pop_front();
                }
                _ => {
                    if let Some(last) = q.last_pos() {
                        let span = (last - q.first_pos() + 1) as usize;
                        let pos = q.first_pos() + (pick[step] % span) as QueuePos;
                        q.get_mut(pos).unwrap().dropped = true;
                    }
                }
            }
            // Invariant after every step: the incremental index equals a
            // rebuild from the live entries — per write-set object, the
            // ascending positions of every live entry (dropped or not).
            let mut expect: BTreeMap<ObjectId, Vec<QueuePos>> = BTreeMap::new();
            for e in q.iter() {
                for o in e.ws().iter() {
                    expect.entry(o).or_default().push(e.pos);
                }
            }
            prop_assert_eq!(q.index_snapshot(), expect);
            for (&o, list) in q.index_snapshot().iter() {
                prop_assert_eq!(q.postings(o), &list[..]);
            }
        }
    }

    #[test]
    fn replay_log_any_arrival_order_matches_in_order_reference(
        actions in gen_actions(10),
        order in Just(()).prop_flat_map(|_| proptest::sample::subsequence((0usize..10).collect::<Vec<_>>(), 10).prop_shuffle())
    ) {
        // Reference: apply actions 1..=n in position order to a fresh state.
        let mut reference = WorldState::new();
        for o in 0..8u32 {
            for a in 0..GEN_ATTRS {
                reference.set_attr(ObjectId(o), AttrId(a), 0i64.into());
            }
        }
        let initial = reference.clone();
        for a in &actions {
            let out = a.evaluate(&(), &reference);
            reference.apply_writes(&out.writes);
        }

        // Replay log: insert the same actions in an arbitrary arrival order
        // (with verification on — these synthetic actions freely violate the
        // closure contract, so stored-outcome reuse does not apply).
        let mut log: ReplayLog<GenAction> = ReplayLog::new(initial);
        log.set_verify_rebuilds(true);
        for &idx in &order {
            let pos = (idx + 1) as QueuePos;
            log.insert_action(pos, actions[idx].clone(), |_p, a, s, _f| a.evaluate(&(), s));
        }
        prop_assert_eq!(log.state().digest(), reference.digest());
    }

    /// The checkpointed log is bit-identical to the full-rebuild oracle
    /// (`checkpoint_interval = 0`) under arbitrary out-of-order arrival
    /// interleavings, blind writes, and GC'd prefixes — same insert
    /// results, same state after every step. Both run with verification
    /// off: that is the production configuration, where rebuilds re-apply
    /// stored outcomes, and it is the pair the golden digests compare.
    #[test]
    fn checkpointed_replay_matches_full_rebuild_oracle(
        actions in gen_actions(14),
        order in Just(()).prop_flat_map(|_| proptest::sample::subsequence((0usize..14).collect::<Vec<_>>(), 14).prop_shuffle()),
        interval in 1usize..6,
        gc_mask in prop::collection::vec(any::<bool>(), 14),
        blinds in prop::collection::vec((0u32..8, -100i64..100, 0u64..16, 0usize..14), 0..5),
    ) {
        let mut initial = WorldState::new();
        for o in 0..8u32 {
            for a in 0..GEN_ATTRS {
                initial.set_attr(ObjectId(o), AttrId(a), 0i64.into());
            }
        }
        let ev = |_p: QueuePos, a: &GenAction, s: &WorldState, _f: bool| a.evaluate(&(), s);
        let mut log: ReplayLog<GenAction> = ReplayLog::new(initial.clone());
        log.set_checkpoint_interval(interval);
        let mut oracle: ReplayLog<GenAction> = ReplayLog::new(initial);
        oracle.set_checkpoint_interval(0);
        let mut done: BTreeSet<usize> = BTreeSet::new();
        for (step, &idx) in order.iter().enumerate() {
            let pos = (idx + 1) as QueuePos;
            let ri = log.insert_action(pos, actions[idx].clone(), ev);
            let ro = oracle.insert_action(pos, actions[idx].clone(), ev);
            prop_assert_eq!(ri, ro, "insert results diverged at step {}", step);
            done.insert(idx);
            for &(obj, val, as_of, after) in &blinds {
                if after == step {
                    let mut o = seve_world::WorldObject::new();
                    o.set(AttrId(0), Value::I64(val));
                    let mut snap = Snapshot::new();
                    snap.push(ObjectId(obj), o);
                    let bi = log.insert_blind(as_of, &snap, ev);
                    let bo = oracle.insert_blind(as_of, &snap, ev);
                    prop_assert_eq!(bi, bo, "blind results diverged at step {}", step);
                }
            }
            if gc_mask[step] {
                // GC the contiguous received prefix, as the server's
                // install notices would.
                let mut p = 0u64;
                while done.contains(&(p as usize)) {
                    p += 1;
                }
                if p > 0 {
                    log.gc(p);
                    oracle.gc(p);
                }
            }
            prop_assert_eq!(
                log.state().digest(),
                oracle.state().digest(),
                "state diverged at step {}",
                step
            );
        }
        prop_assert_eq!(log.base_pos(), oracle.base_pos());
        prop_assert_eq!(log.log_len(), oracle.log_len());
        prop_assert_eq!(log.divergences(), 0);
        prop_assert_eq!(oracle.divergences(), 0);
    }

    /// Soundness of the commutativity gate: the fast path must never fire
    /// when a later entry's read set overlaps the inserted write set (or
    /// vice versa) — and whether it fires or not, the state must match the
    /// full-rebuild oracle.
    #[test]
    fn commute_fast_path_never_fires_on_overlap(
        suffix in gen_actions(8),
        inserted in gen_action(7, 99),
        interval in 1usize..5,
    ) {
        let mut initial = WorldState::new();
        for o in 0..8u32 {
            for a in 0..GEN_ATTRS {
                initial.set_attr(ObjectId(o), AttrId(a), 0i64.into());
            }
        }
        let ev = |_p: QueuePos, a: &GenAction, s: &WorldState, _f: bool| a.evaluate(&(), s);
        let mut log: ReplayLog<GenAction> = ReplayLog::new(initial.clone());
        log.set_checkpoint_interval(interval);
        // Position 1 is delayed; 2..=9 arrive first.
        for (i, a) in suffix.iter().enumerate() {
            log.insert_action((i + 2) as QueuePos, a.clone(), ev);
        }
        let overlap = suffix
            .iter()
            .any(|e| inserted.ws.intersects(&e.rs) || inserted.rs.intersects(&e.ws));
        let r = log.insert_action(1, inserted.clone(), ev);
        prop_assert!(r.rebuilt, "late arrival is protocol-visible either way");
        let outcome = r.outcome.cloned();
        if overlap {
            prop_assert_eq!(log.commute_hits(), 0, "fast path fired on a conflicting suffix");
        }
        let mut oracle: ReplayLog<GenAction> = ReplayLog::new(initial);
        oracle.set_checkpoint_interval(0);
        for (i, a) in suffix.iter().enumerate() {
            oracle.insert_action((i + 2) as QueuePos, a.clone(), ev);
        }
        let ro = oracle.insert_action(1, inserted.clone(), ev);
        prop_assert!(ro.rebuilt);
        prop_assert_eq!(outcome.as_ref(), ro.outcome);
        prop_assert_eq!(log.state().digest(), oracle.state().digest());
    }
}

/// One queued action of the sliced-closure differential: read/write sets
/// over a small object space (reads ⊇ writes; both may be empty), an
/// Algorithm 7 drop mark, and which of the scenario's clients already hold
/// it / have it as a candidate.
#[derive(Clone, Debug)]
struct SlicedEntry {
    reads: BTreeSet<u32>,
    writes: BTreeSet<u32>,
    dropped: bool,
    sent: Vec<usize>,
    cands: Vec<usize>,
}

/// How many distinct clients a sliced-closure scenario touches.
const SLICED_ACTIVE: usize = 6;

fn sliced_entry() -> impl Strategy<Value = SlicedEntry> {
    (
        prop::collection::btree_set(0u32..10, 0..4),
        prop::collection::vec(any::<bool>(), 4),
        // A quarter of the entries are dropped, so shared cursors
        // regularly park on one.
        0u8..4,
        prop::collection::vec(0..SLICED_ACTIVE, 0..4),
        prop::collection::vec(0..SLICED_ACTIVE, 0..3),
    )
        .prop_map(|(reads, write_mask, dropped, sent, cands)| SlicedEntry {
            writes: reads
                .iter()
                .zip(&write_mask)
                .filter_map(|(&o, &w)| w.then_some(o))
                .collect(),
            reads,
            dropped: dropped == 0,
            sent,
            cands,
        })
}

/// Cases in which the first / second Algorithm 7 tick dropped something.
static TICK_DROPS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// Two consecutive Algorithm 7 ticks through one reused `AnalyzeScratch`
/// against the linear oracle: the first tick analyzes the first `split`
/// actions (with pre-dropped entries and drops of its own), the second the
/// rest, so state the first tick left in the scratch or in the queue's drop
/// marks would show up as a divergence in the second.
#[test]
fn indexed_analysis_matches_linear() {
    analysis_tick_cases();
    for (tick, counter) in TICK_DROPS.iter().enumerate() {
        let n = counter.load(Ordering::Relaxed);
        assert!(
            n > 100,
            "only {n} cases dropped in tick {tick}: the differential is vacuous"
        );
    }
}

/// What the sliced-closure cases exercised, summed over all of them:
/// `S \ WS` steps, non-empty residues, and results holding support beyond
/// the candidates.
static SLICED_SUBTRACTS: AtomicUsize = AtomicUsize::new(0);
static SLICED_RESIDUES: AtomicUsize = AtomicUsize::new(0);
static SLICED_SUPPORTS: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Not a test by itself: `sliced_closure_matches_per_client_walks` runs
    // the cases and then checks they were not vacuous.
    fn sliced_closure_cases(
        clients in (0usize..4).prop_map(|i| [1usize, 65, 130, 1024][i]),
        picks in prop::collection::vec(0usize..1024, SLICED_ACTIVE),
        entries in prop::collection::vec(sliced_entry(), 1..24),
        pops in 0usize..4,
    ) {
        // The scenario's clients, spread across the words of the mask; the
        // last client is always one of them, so the top word's tail is used.
        let mut active: Vec<usize> = picks.iter().map(|&p| p % clients).collect();
        active[0] = clients - 1;
        let build = || {
            let mut q: ActionQueue<GenAction> = ActionQueue::new();
            for (i, e) in entries.iter().enumerate() {
                let pos = q.push(
                    GenAction {
                        id: ActionId::new(ClientId(0), i as u32),
                        rs: e.reads.iter().map(|&o| ObjectId(o)).collect(),
                        ws: e.writes.iter().map(|&o| ObjectId(o)).collect(),
                        attr: AttrId(0),
                        center: Vec2::new(0.0, 0.0),
                    },
                    SimTime::ZERO,
                );
                let qe = q.get_mut(pos).unwrap();
                qe.dropped = e.dropped;
                for &a in &e.sent {
                    qe.sent.insert(ClientId(active[a] as u16));
                }
            }
            for _ in 0..pops.min(entries.len() - 1) {
                q.pop_front();
            }
            q
        };
        let mut q_sliced = build();
        let mut q_walks = build();
        // Candidates as the route stage selects them: live, undropped, not
        // yet sent to the client.
        let mut cands: Vec<Vec<QueuePos>> = vec![Vec::new(); clients];
        for e in q_sliced.iter() {
            for &a in &entries[(e.pos - 1) as usize].cands {
                let c = active[a];
                if !e.dropped
                    && !e.sent.contains(ClientId(c as u16))
                    && cands[c].last() != Some(&e.pos)
                {
                    cands[c].push(e.pos);
                }
            }
        }
        // One scratch serves both cycles, so anything a cycle leaves behind
        // in it would show in the second.
        let mut sliced = SlicedClosure::new();
        for cycle in 0..2 {
            let got = sliced.run(&mut q_sliced, &cands).to_vec();
            prop_assert_eq!(got.len(), clients);
            for (c, got) in got.iter().enumerate() {
                let client = ClientId(c as u16);
                let (naive, subtracts) = naive_closure(
                    &q_walks
                        .iter()
                        .map(|e| (e.pos, &*e.action, e.sent.contains(client), e.dropped))
                        .collect::<Vec<_>>(),
                    &cands[c],
                );
                let want = closure_for(&mut q_walks, client, &cands[c]);
                prop_assert_eq!(&got.send, &want.send, "cycle {} client {}", cycle, c);
                prop_assert_eq!(&got.blind_set, &want.blind_set, "cycle {} client {}", cycle, c);
                prop_assert_eq!(got.scanned, want.scanned, "cycle {} client {}", cycle, c);
                prop_assert!(got.visited <= want.visited);
                prop_assert_eq!(got.send.iter().copied().collect::<BTreeSet<_>>(), naive);
                SLICED_SUBTRACTS.fetch_add(subtracts, Ordering::Relaxed);
                SLICED_RESIDUES.fetch_add(usize::from(!want.blind_set.is_empty()), Ordering::Relaxed);
                SLICED_SUPPORTS
                    .fetch_add(usize::from(want.send.len() > cands[c].len()), Ordering::Relaxed);
            }
            for (a, b) in q_sliced.iter().zip(q_walks.iter()) {
                for c in 0..clients {
                    let c = ClientId(c as u16);
                    prop_assert_eq!(a.sent.contains(c), b.sent.contains(c), "pos {}", a.pos);
                }
            }
            // Second cycle: every scenario client asks for the newest live
            // action it does not hold yet, over the `sent` bits the first
            // cycle left — chains that are now partly sent.
            for list in cands.iter_mut() {
                list.clear();
            }
            for &c in &active {
                let newest_unheld = q_walks
                    .iter()
                    .filter(|e| !e.dropped && !e.sent.contains(ClientId(c as u16)))
                    .last();
                if let Some(e) = newest_unheld {
                    cands[c] = vec![e.pos];
                }
            }
        }
    }
}

/// The sliced pass — Algorithm 6 for all clients in one descending pass over
/// the write index — against its oracle, one [`closure_for`] walk per client
/// on a cloned queue: same `send`, `blind_set` and `scanned` for every
/// client, and the same `sent` set on every entry afterwards. Queues carry
/// dropped entries, partly-sent chains, clients with no candidates and
/// actions that read nothing; 1 / 65 / 130 / 1024 clients put the
/// scenario's clients in one mask word, two, three, and spread over sixteen
/// with most of them empty.
#[test]
fn sliced_closure_matches_per_client_walks() {
    sliced_closure_cases();
    for (what, counter) in [
        ("subtract", &SLICED_SUBTRACTS),
        ("residue", &SLICED_RESIDUES),
        ("support beyond the candidates", &SLICED_SUPPORTS),
    ] {
        let n = counter.load(Ordering::Relaxed);
        assert!(
            n > 100,
            "only {n} cases of {what}: the differential is vacuous"
        );
    }
}
