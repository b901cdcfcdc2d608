//! The SEVE client engine — Algorithms 1, 3, and 4.
//!
//! One engine serves every protocol variant; the server decides *which*
//! items reach the client, the client's job is always the same:
//!
//! 1. **Optimistic execution** (step 2): a locally created action is
//!    evaluated against ζ_CO immediately, queued in Q, and submitted.
//! 2. **Stable application** (steps 4–5): serialized items from the server
//!    are folded into ζ_CS in position order ([`crate::replay`]). Writes of
//!    remote actions propagate to ζ_CO only for objects outside `WS(Q)` —
//!    objects "not awaiting permanent values from the server".
//! 3. **Reconciliation** (Algorithm 3): when an own action's stable outcome
//!    disagrees with its optimistic one (or the action was dropped), the
//!    optimistic state is reset from ζ_CS on `WS(Q)` and the remaining
//!    pending actions are re-applied.
//! 4. **Completion messages** (Algorithm 4 step 5): under the Incomplete
//!    World Model the stable outcome of each own action is reported to the
//!    server, which installs the values into ζ_S.

use crate::config::{ProtocolConfig, ServerMode};
use crate::engine::ClientNode;
use crate::metrics::{ClientMetrics, EvalRecord};
use crate::msg::{Payload, ToClient, ToServer};
use crate::pending::PendingQueue;
use crate::replay::ReplayLog;
use seve_net::time::SimTime;
use seve_world::action::{Action, Outcome};
use seve_world::ids::{ClientId, QueuePos};
use seve_world::objset::ObjectSet;
use seve_world::state::WorldState;
use seve_world::GameWorld;
use std::sync::Arc;

/// The client engine shared by all action-based protocol variants.
pub struct SeveClient<W: GameWorld> {
    id: ClientId,
    world: Arc<W>,
    mode: ServerMode,
    redundant_completions: bool,
    /// ζ_CO — the optimistic state the player sees.
    zeta_co: WorldState,
    /// ζ_CS materialization and the positioned item log.
    replay: ReplayLog<W::Action>,
    /// Q — pending own actions with their optimistic outcomes.
    pending: PendingQueue<W::Action>,
    next_seq: u32,
    metrics: ClientMetrics,
}

impl<W: GameWorld> SeveClient<W> {
    /// Build a client for `id` over `world` under `cfg`.
    pub fn new(id: ClientId, world: Arc<W>, cfg: &ProtocolConfig) -> Self {
        let initial = world.initial_state();
        let mut replay = ReplayLog::new(initial.clone());
        replay.set_verify_rebuilds(cfg.verify_rebuilds);
        let metrics = ClientMetrics {
            owner: id.0,
            ..ClientMetrics::default()
        };
        Self {
            id,
            mode: cfg.mode,
            redundant_completions: cfg.redundant_completions,
            zeta_co: initial,
            replay,
            pending: PendingQueue::new(),
            next_seq: 0,
            metrics,
            world,
        }
    }

    /// Does this variant send completion messages? (Everything except the
    /// basic broadcast protocol, which has no authoritative ζ_S.)
    fn sends_completions(&self) -> bool {
        self.mode != ServerMode::Basic
    }

    /// Number of pending (not yet returned) own actions.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of items currently held in the replay log (diagnostics; the
    /// Section III-C memory optimization keeps this bounded when the server
    /// sends GC notices).
    pub fn replay_log_len(&self) -> usize {
        self.replay.log_len()
    }

    /// Evaluate `action` against `state` for the stable side, recording
    /// metrics and cost. Free function over split borrows so the replay log
    /// can call it while mutably borrowed.
    #[allow(clippy::too_many_arguments)]
    fn eval_for_replay(
        world: &W,
        metrics: &mut ClientMetrics,
        cost_us: &mut u64,
        pos: QueuePos,
        action: &W::Action,
        state: &WorldState,
        first_time: bool,
    ) -> Outcome {
        let outcome = action.evaluate(world.env(), state);
        metrics.evaluations += 1;
        *cost_us += world.eval_cost_micros(action);
        if first_time {
            // The oracle's view of the inputs: only a first evaluation is
            // recorded, so only it pays the read-set fold.
            let mut missing = 0u32;
            let mut input_digest = 0xcbf2_9ce4_8422_2325u64;
            for o in action.read_set().iter() {
                match state.get(o) {
                    Some(obj) => input_digest = obj.fold_digest(input_digest),
                    None => missing += 1,
                }
            }
            metrics.eval_records.push(EvalRecord {
                pos,
                id: action.id(),
                digest: outcome.digest(),
                input_digest,
                missing_reads: missing,
            });
        }
        outcome
    }

    /// Re-evaluate Q, oldest first, on top of ζ_CO as it stands, replacing
    /// the stored optimistic outcomes. Returns the compute cost.
    fn reapply_pending(&mut self) -> u64 {
        let mut cost = 0u64;
        let world = &self.world;
        let zeta_co = &mut self.zeta_co;
        self.pending.reapply(|a| {
            let o = a.evaluate(world.env(), zeta_co);
            zeta_co.apply_writes(&o.writes);
            cost += world.eval_cost_micros(a);
            o
        });
        self.metrics.evaluations += self.pending.len() as u64;
        cost
    }

    /// Algorithm 3: reset ζ_CO from ζ_CS on `extra ∪ WS(Q)` and re-apply
    /// the pending queue. Returns the compute cost of the re-evaluations.
    fn reconcile(&mut self, extra: &ObjectSet) -> u64 {
        self.metrics.reconciliations += 1;
        // Reset on WS(Q) ∪ extra — as two copies over the (possibly
        // overlapping) sets, so no union set is allocated per message.
        self.zeta_co
            .copy_objects_from(self.replay.state(), self.pending.ws_set());
        self.zeta_co.copy_objects_from(self.replay.state(), extra);
        self.reapply_pending()
    }

    /// Full optimistic resync after an out-of-order replay rebuild: ζ_CO
    /// becomes ζ_CS plus a fresh optimistic replay of Q. (The incremental
    /// propagation rule is only sound for in-order application.)
    fn resync_optimistic(&mut self) -> u64 {
        self.metrics.replay_rebuilds += 1;
        self.zeta_co.clone_from(self.replay.state());
        self.reapply_pending()
    }
}

impl<W: GameWorld> ClientNode<W> for SeveClient<W> {
    type Up = ToServer<W::Action>;
    type Down = ToClient<W::Action>;

    fn id(&self) -> ClientId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn optimistic(&self) -> &WorldState {
        &self.zeta_co
    }

    fn stable(&self) -> &WorldState {
        self.replay.state()
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn submit(&mut self, now: SimTime, action: W::Action, out: &mut Vec<Self::Up>) -> u64 {
        debug_assert_eq!(action.issuer(), self.id);
        debug_assert_eq!(action.id().seq, self.next_seq);
        debug_assert!(
            {
                let mut rs = action.read_set().clone();
                rs.union_with(action.write_set());
                rs == *action.read_set()
            },
            "the paper assumes RS(a) ⊇ WS(a)"
        );
        self.next_seq += 1;
        // Optimistic evaluation against ζ_CO (Algorithm 1 step 2).
        let optimistic = action.evaluate(self.world.env(), &self.zeta_co);
        self.zeta_co.apply_writes(&optimistic.writes);
        let cost = self.world.eval_cost_micros(&action);
        self.metrics.evaluations += 1;
        self.metrics.submitted += 1;
        self.pending.push(action.clone(), optimistic, now);
        out.push(ToServer::Submit { action });
        self.metrics.compute_us += cost;
        cost
    }

    fn deliver(&mut self, now: SimTime, msg: Self::Down, out: &mut Vec<Self::Up>) -> u64 {
        let mut cost = 0u64;
        match msg {
            ToClient::Batch { items } => {
                self.metrics.batches += 1;
                for item in items.iter() {
                    match &item.payload {
                        Payload::Blind(snap) => {
                            let world = &self.world;
                            let metrics = &mut self.metrics;
                            let ins = self.replay.insert_blind(item.pos, snap, {
                                let cost = &mut cost;
                                move |p, a, s, f| {
                                    Self::eval_for_replay(world, metrics, cost, p, a, s, f)
                                }
                            });
                            if ins.rebuilt {
                                cost += self.resync_optimistic();
                            } else if !ins.ignored {
                                // Propagate to ζ_CO except items awaiting
                                // permanent values (Algorithm 4 step 4);
                                // blinds the replay discarded as stale must
                                // not regress ζ_CO either. Applied in order,
                                // ζ_CS now holds exactly the snapshot's
                                // values, so ζ_CO shares its objects.
                                let awaiting = self.pending.ws_set();
                                self.zeta_co.copy_objects_from(
                                    self.replay.state(),
                                    snap.iter()
                                        .map(|(id, _)| id)
                                        .filter(|&id| !awaiting.contains(id)),
                                );
                            }
                        }
                        Payload::Action(action) => {
                            if self.replay.has_action(item.pos) {
                                // Duplicate delivery (e.g. redundant push):
                                // already applied, ignore.
                                continue;
                            }
                            let own = action.issuer() == self.id;
                            let id = action.id();
                            let completes =
                                self.sends_completions() && (own || self.redundant_completions);
                            let world = &self.world;
                            let metrics = &mut self.metrics;
                            let ins = self.replay.insert_action(item.pos, action.clone(), {
                                let cost = &mut cost;
                                move |p, a, s, f| {
                                    Self::eval_for_replay(world, metrics, cost, p, a, s, f)
                                }
                            });
                            let rebuilt = ins.rebuilt;
                            // Lent by the log: until its last use below,
                            // only fields other than `replay` are touched.
                            let stable = ins.outcome.expect("actions produce outcomes");
                            // Our own action came back: it leaves Q. In-order
                            // servers return them in submission order, so this
                            // is almost always the head.
                            let returned = if own {
                                self.pending.remove_by_id(id)
                            } else {
                                None
                            };
                            debug_assert_eq!(own, returned.is_some(), "own {id:?} not pending");
                            if let Some(entry) = &returned {
                                let waited = now - entry.submitted;
                                self.metrics.response_ms.record(waited.as_ms_f64());
                            }
                            let mispredicted = returned.filter(|e| e.optimistic != *stable);
                            if !own && !rebuilt {
                                self.zeta_co
                                    .apply_writes_except(&stable.writes, self.pending.ws_set());
                            }
                            if completes {
                                self.metrics.completions_sent += 1;
                                out.push(ToServer::Completion {
                                    pos: item.pos,
                                    id,
                                    writes: stable.writes.clone(),
                                    aborted: stable.aborted,
                                });
                            }
                            if let Some(entry) = mispredicted {
                                // "Otherwise, ζ_CO is reconciled with ζ_CS
                                // using Algorithm 3." The returned action's
                                // writes polluted ζ_CO too; include them in
                                // the reset set.
                                cost += self.reconcile(entry.action.write_set());
                            }
                            if rebuilt {
                                cost += self.resync_optimistic();
                            }
                        }
                    }
                }
            }
            ToClient::Dropped { id, pos: _ } => {
                // Our action was dropped by Algorithm 7: it aborts as a
                // no-op everywhere. Roll its optimistic effects back.
                if let Some(entry) = self.pending.remove_by_id(id) {
                    self.metrics.dropped += 1;
                    let waited = now - entry.submitted;
                    self.metrics.drop_notice_ms.record(waited.as_ms_f64());
                    cost += self.reconcile(entry.action.write_set());
                } else {
                    debug_assert!(false, "drop notice for unknown action {id:?}");
                }
            }
            ToClient::GcUpTo { pos } => {
                self.replay.gc(pos);
            }
        }
        self.metrics.replay_divergences = self.replay.divergences();
        self.metrics.replay_entries_replayed = self.replay.entries_replayed();
        self.metrics.replay_checkpoint_hits = self.replay.checkpoint_hits();
        self.metrics.replay_commute_hits = self.replay.commute_hits();
        self.metrics.compute_us += cost;
        cost
    }

    fn metrics_mut(&mut self) -> &mut ClientMetrics {
        &mut self.metrics
    }

    fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }
}
