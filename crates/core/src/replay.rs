//! Ordered replay of serialized items — the client's stable state ζ_CS.
//!
//! Under the Incomplete World Model the server may deliver an *older*
//! action in a *later* reply (Algorithm 6 sends actions lazily, per
//! client). The stable state must nevertheless reflect items in **queue
//! position order**, so the client keeps a positioned log:
//!
//! * a `base` checkpoint — its (partial) knowledge of the committed state
//!   up to `base_pos`, advanced by [`ReplayLog::gc`] when the server
//!   reports installs;
//! * the received items after `base_pos`, keyed so that an action at
//!   position `p` applies before a blind write `as_of = p`, which applies
//!   before the action at `p + 1`;
//! * a materialized `cache` = base ⊕ replay(items).
//!
//! The items are one `VecDeque` sorted by key. An in-order arrival — every
//! item whose key tops the log — is appended; a late one is inserted at its
//! binary-searched index, which lies near the tail, so the move is short.
//! [`ReplayLog::has_action`] is one binary search, the commute and suffix
//! scans walk index ranges, and [`ReplayLog::gc`] drains a prefix. The
//! buffer is reused, so filing an item and folding it on a GC notice
//! allocate nothing once the log has reached its working length.
//!
//! In-order arrivals (the overwhelmingly common case) extend the cache
//! incrementally. An out-of-order arrival rebuilds the cache by replaying
//! a suffix — and, by the closure property of Algorithm 6, every
//! re-evaluated action reproduces its original outcome (an action that
//! could have changed an already-evaluated action's inputs would have been
//! in that action's closure and hence already present). Debug builds and
//! the consistency oracle verify this.
//!
//! # Checkpoints, sparse reconciliation, and the commutativity fast path
//!
//! A naïve rebuild replays the whole log from `base`, making out-of-order
//! reconciliation quadratic in window size. Three layers shrink that:
//!
//! * **Periodic checkpoints.** Every K = 32 applied items
//!   the log records `⟨upto, delta⟩` where `delta` is the partial state
//!   holding every object touched since the previous checkpoint, cut from
//!   the true replay state at the boundary as shared handles (no object is
//!   copied; the cache un-shares one on its next write). By induction
//!   `state(upto_i) = base ⊕ delta_1 ⊕ … ⊕ delta_i`, so reconciliation at
//!   position `p` resumes from the nearest checkpoint `< p` instead of
//!   `base`.
//! * **Commutativity splice.** If the inserted item is signature-gated
//!   disjoint ([`ObjectSet::intersects`]) from the read *and* write sets
//!   of every later log entry, applying it at the tail equals applying it
//!   at `p`: its evaluation inputs cannot have been written after `p`, and
//!   nothing after `p` reads or overwrites its writes. The item is then
//!   evaluated against the cache and spliced in with no replay at all,
//!   folding its writes into the first checkpoint delta past `p` so the
//!   chain stays valid.
//! * **Sparse reconciliation.** A conflicting out-of-order *action* never
//!   replays the suffix either. The closure contract pins every later
//!   entry to its stored outcome, so the log materializes just the
//!   action's own footprint at `p` (checkpoint deltas plus the stored
//!   writes of the few entries since the boundary, filtered by signature),
//!   evaluates once, and folds in only the writes no later entry
//!   overwrites — attribute-granular against later actions,
//!   object-granular against blind snapshots. See
//!   `ReplayLog::reconcile_sparse`. Out-of-order *blind writes* that fail
//!   the commute gate still take the suffix replay from the nearest
//!   checkpoint (they carry whole-object values, not per-attribute
//!   writes, and are far rarer than actions).
//!
//! All three layers are *work* optimizations, not behaviour changes:
//! outcomes, evaluation counts, and the materialized state are
//! bit-identical to the full rebuild, which remains available to tests
//! ([`ReplayLog::set_checkpoint_interval`]`(0)`, or verification mode) as
//! the reference oracle. Real work is reported via
//! [`ReplayLog::entries_replayed`] and friends.

use crate::msg::Shared;
use seve_world::action::{Action, Outcome};
use seve_world::ids::QueuePos;
use seve_world::objset::ObjectSet;
use seve_world::state::{Snapshot, WorldState, WriteLog};
use std::collections::VecDeque;

/// Sort key: `(position, phase, arrival)` where phase 0 = the action at
/// this position, phase 1 = a blind write capturing committed state *after*
/// this position.
type Key = (QueuePos, u8, u64);

/// The checkpoint interval K every replica runs with. Tests may override it
/// per log through [`ReplayLog::set_checkpoint_interval`].
const CHECKPOINT_INTERVAL: usize = 32;

enum LogItem<A> {
    Action {
        /// Refcounted: the log entry shares the delivered batch's payload
        /// instead of deep-copying the action.
        action: Shared<A>,
        /// The outcome of the most recent evaluation, reused by `gc` so
        /// checkpoint advancement never re-runs game code.
        outcome: Option<Outcome>,
    },
    Blind {
        /// The snapshot as a partial state: its objects are copied out of
        /// the message once, and the cache, the base and any replay then
        /// share them.
        values: WorldState,
        /// The snapshot's object set, precomputed for the commute gate.
        objs: ObjectSet,
    },
}

/// One link of the checkpoint chain: the replay state just after applying
/// the item at `upto` is `base ⊕ delta_1 ⊕ … ⊕ delta_i`.
struct Checkpoint {
    upto: Key,
    /// Objects touched since the previous checkpoint, valued as of `upto`.
    delta: WorldState,
}

/// What happened when an item was inserted.
#[derive(Debug, Clone, PartialEq)]
pub struct Inserted<'a> {
    /// The stable outcome of the inserted action (None for blind writes),
    /// lent from the log entry that stores it.
    pub outcome: Option<&'a Outcome>,
    /// Did insertion require reconciliation (out-of-order arrival)? True
    /// even when the commute fast path skipped the replay: the optimistic
    /// side must still resync, and the protocol-visible rebuild count must
    /// not depend on the work optimization.
    pub rebuilt: bool,
    /// Was the item discarded as stale (older than the checkpoint)?
    /// Callers must not propagate ignored items anywhere else either.
    pub ignored: bool,
}

/// The positioned item log materializing ζ_CS.
pub struct ReplayLog<A> {
    base: WorldState,
    base_pos: QueuePos,
    /// The received items after `base_pos`, ascending by key.
    items: VecDeque<(Key, LogItem<A>)>,
    arrivals: u64,
    cache: WorldState,
    /// Highest key applied to `cache`; `None` when nothing beyond base.
    applied_hi: Option<Key>,
    /// Re-evaluations that produced a different outcome than the original
    /// (must stay zero under the full protocol; see [`ReplayLog::rebuild`]).
    divergences: u64,
    /// Verify the closure property on every rebuild by re-evaluating the
    /// whole suffix from base (costly); off by default — rebuilds then
    /// re-apply stored outcomes, which the Algorithm 6 contract guarantees
    /// identical.
    verify_rebuilds: bool,
    /// Snapshot ζ every this-many applied items; `0` disables checkpoints
    /// and the commute fast path (the full-rebuild reference oracle).
    checkpoint_interval: usize,
    /// The delta chain, ordered by `upto`.
    checkpoints: Vec<Checkpoint>,
    /// Items applied since the last checkpoint boundary.
    since_ckpt: usize,
    /// Objects touched since the last checkpoint boundary.
    dirty: ObjectSet,
    /// Memoized `base ⊕ delta_1 ⊕ … ⊕ delta_n` for the last rebuild start
    /// point, so storms hammering the same region skip the prefix fold.
    materialized: Option<(usize, WorldState)>,
    /// Log entries re-applied across all rebuilds (the real work).
    entries_replayed: u64,
    /// Rebuilds that started from an intermediate checkpoint.
    checkpoint_hits: u64,
    /// Out-of-order inserts spliced in place with no replay.
    commute_hits: u64,
}

impl<A: Action> ReplayLog<A> {
    /// A log starting from `initial` as the committed state at position 0.
    ///
    /// All replicas bootstrap from the complete initial world (the paper
    /// does not discuss bootstrap; shipping the initial world with the
    /// client is how deployed games do it). Incompleteness arises as
    /// updates flow.
    pub fn new(initial: WorldState) -> Self {
        Self {
            cache: initial.clone(),
            base: initial,
            base_pos: 0,
            items: VecDeque::new(),
            arrivals: 0,
            applied_hi: None,
            divergences: 0,
            verify_rebuilds: false,
            checkpoint_interval: CHECKPOINT_INTERVAL,
            checkpoints: Vec::new(),
            since_ckpt: 0,
            dirty: ObjectSet::new(),
            materialized: None,
            entries_replayed: 0,
            checkpoint_hits: 0,
            commute_hits: 0,
        }
    }

    /// Enable suffix re-evaluation on rebuilds (the closure-property
    /// verification mode used by tests; costly on long logs). Configure
    /// before inserting items: dirty tracking is suspended while on, so a
    /// checkpoint chain cannot straddle the toggle.
    pub fn set_verify_rebuilds(&mut self, on: bool) {
        debug_assert!(self.items.is_empty(), "configure before inserting items");
        self.verify_rebuilds = on;
    }

    /// Override the checkpoint interval K (`0` = full-rebuild oracle mode)
    /// — a test hook: replicas always run with K = 32. Configure before
    /// inserting items.
    pub fn set_checkpoint_interval(&mut self, k: usize) {
        debug_assert!(self.items.is_empty(), "configure before inserting items");
        self.checkpoint_interval = k;
    }

    /// Are checkpoints and the commute fast path active? Verification mode
    /// replays everything from base by definition, so it forces the oracle.
    #[inline]
    fn indexing(&self) -> bool {
        self.checkpoint_interval != 0 && !self.verify_rebuilds
    }

    /// The materialized stable state ζ_CS.
    #[inline]
    pub fn state(&self) -> &WorldState {
        &self.cache
    }

    /// The checkpoint position (everything at or before it is folded into
    /// the base).
    #[inline]
    pub fn base_pos(&self) -> QueuePos {
        self.base_pos
    }

    /// Number of items currently held after the checkpoint.
    #[inline]
    pub fn log_len(&self) -> usize {
        self.items.len()
    }

    /// Number of live checkpoints in the delta chain (diagnostics).
    #[inline]
    pub fn checkpoints_len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Re-evaluations whose outcome differed from the original evaluation.
    /// Always zero when the server honours the Algorithm 6 closure
    /// contract (delivering an action's full support no later than the
    /// action itself).
    #[inline]
    pub fn divergences(&self) -> u64 {
        self.divergences
    }

    /// Log entries re-applied across all reconciliations — the real
    /// host-side work behind the protocol-visible rebuild count. Suffix
    /// replays count every re-applied entry; sparse reconciliation counts
    /// the in-window entries whose stored writes it folds in.
    #[inline]
    pub fn entries_replayed(&self) -> u64 {
        self.entries_replayed
    }

    /// Rebuilds that started from an intermediate checkpoint, not base.
    #[inline]
    pub fn checkpoint_hits(&self) -> u64 {
        self.checkpoint_hits
    }

    /// Out-of-order inserts spliced in place because they commute with the
    /// whole log suffix.
    #[inline]
    pub fn commute_hits(&self) -> u64 {
        self.commute_hits
    }

    /// Has an action at `pos` already been inserted?
    pub fn has_action(&self, pos: QueuePos) -> bool {
        // Every held key is at or below `applied_hi`, so the in-order case
        // answers without searching the log.
        pos <= self.base_pos
            || (self.applied_hi.is_some_and(|hi| pos <= hi.0)
                && self
                    .items
                    .get(self.index_of((pos, 0, 0)))
                    .is_some_and(|((p, phase, _), _)| *p == pos && *phase == 0))
    }

    /// The index of the first item whose key is not below `key`: where an
    /// item filed under `key` belongs.
    #[inline]
    fn index_of(&self, key: Key) -> usize {
        self.items.partition_point(|(k, _)| *k < key)
    }

    /// The index of the first item past `key`.
    #[inline]
    fn index_after(&self, key: Key) -> usize {
        self.items.partition_point(|(k, _)| *k <= key)
    }

    /// File `item` under `key` in key order and return its index. In-order
    /// items (every one whose key tops the log) append.
    fn file(&mut self, key: Key, item: LogItem<A>) -> usize {
        let at = match self.items.back() {
            Some((last, _)) if *last > key => self.index_of(key),
            _ => self.items.len(),
        };
        self.items.insert(at, (key, item));
        at
    }

    /// Insert the serialized action at `pos`, evaluating it (and any
    /// replayed suffix) through `eval`. `eval` receives
    /// `(pos, &action, state-before, first_time)` and returns the outcome;
    /// the caller uses it to charge compute and record metrics.
    pub fn insert_action(
        &mut self,
        pos: QueuePos,
        action: impl Into<Shared<A>>,
        mut eval: impl FnMut(QueuePos, &A, &WorldState, bool) -> Outcome,
    ) -> Inserted<'_> {
        let action = action.into();
        debug_assert!(pos > self.base_pos, "action at or before the checkpoint");
        debug_assert!(!self.has_action(pos), "duplicate action position");
        let key: Key = (pos, 0, self.next_arrival());
        let in_order = self.applied_hi.is_none_or(|hi| key > hi);
        if in_order {
            // Fast path: evaluate against the current cache and extend it.
            let o = eval(pos, &action, &self.cache, true);
            self.cache.apply_writes(&o.writes);
            if self.indexing() {
                o.writes.add_touched_to(&mut self.dirty);
                self.maybe_checkpoint(key);
            }
            self.applied_hi = Some(key);
            return Inserted {
                outcome: Some(self.store_evaluated(key, action, o)),
                rebuilt: false,
                ignored: false,
            };
        }
        if self.indexing() {
            let o = if self.action_commutes(key, &action) {
                // Commute splice: nothing after `pos` wrote the action's
                // reads, so the cache view of its read set *is* the
                // position-`pos` view — evaluate against it directly.
                // Nothing after `pos` reads or writes its writes, so
                // applying them at the tail equals applying them at `pos`.
                self.commute_hits += 1;
                let o = eval(pos, &action, &self.cache, true);
                self.cache.apply_writes(&o.writes);
                let touched = o.writes.touched_objects();
                self.patch_chain(key, &touched);
                o
            } else {
                self.reconcile_sparse(key, &action, &mut eval)
            };
            return Inserted {
                outcome: Some(self.store_evaluated(key, action, o)),
                rebuilt: true,
                ignored: false,
            };
        }
        let at = self.file(
            key,
            LogItem::Action {
                action,
                outcome: None,
            },
        );
        self.rebuild(key, &mut eval);
        // A rebuild re-applies items in place; it files and drops none.
        let outcome = match &self.items[at] {
            (_, LogItem::Action { outcome, .. }) => outcome.as_ref(),
            _ => None,
        };
        Inserted {
            outcome,
            rebuilt: true,
            ignored: false,
        }
    }

    /// File an evaluated action under `key` and lend its outcome back: the
    /// entry holds the one copy, for `gc` and later reconciliations.
    fn store_evaluated(&mut self, key: Key, action: Shared<A>, outcome: Outcome) -> &Outcome {
        let at = self.file(
            key,
            LogItem::Action {
                action,
                outcome: Some(outcome),
            },
        );
        match &self.items[at].1 {
            LogItem::Action {
                outcome: Some(o), ..
            } => o,
            _ => unreachable!("filed with an outcome just above"),
        }
    }

    /// Insert a blind write capturing committed state as of `as_of`.
    pub fn insert_blind(
        &mut self,
        as_of: QueuePos,
        snap: &Snapshot,
        mut eval: impl FnMut(QueuePos, &A, &WorldState, bool) -> Outcome,
    ) -> Inserted<'static> {
        if as_of < self.base_pos {
            // Strictly older than our checkpoint: it cannot add anything we
            // would apply (our base already reflects a later prefix for
            // every object we know, and objects we do not know cannot be
            // read before a newer blind supplies them). Ignore.
            return Inserted {
                outcome: None,
                rebuilt: false,
                ignored: true,
            };
        }
        let key: Key = (as_of, 1, self.next_arrival());
        let in_order = self.applied_hi.is_none_or(|hi| key > hi);
        let objs = snap.object_set();
        let mut values = WorldState::new();
        values.apply_snapshot(snap);
        if in_order {
            self.cache.overlay(&values);
            if self.indexing() {
                self.dirty.union_with(&objs);
                self.maybe_checkpoint(key);
            }
            self.items.push_back((key, LogItem::Blind { values, objs }));
            self.applied_hi = Some(key);
            return Inserted {
                outcome: None,
                rebuilt: false,
                ignored: false,
            };
        }
        if self.indexing() && self.blind_commutes(key, &objs) {
            // Later entries neither read nor write any snapshot object, so
            // the blind's values survive to the tail untouched — apply it
            // to the cache directly.
            self.commute_hits += 1;
            self.cache.overlay(&values);
            self.patch_chain(key, &objs);
            self.file(key, LogItem::Blind { values, objs });
            return Inserted {
                outcome: None,
                rebuilt: true,
                ignored: false,
            };
        }
        self.file(key, LogItem::Blind { values, objs });
        self.rebuild(key, &mut eval);
        Inserted {
            outcome: None,
            rebuilt: true,
            ignored: false,
        }
    }

    /// Does the action commute with every log entry after `key`? Requires
    /// both directions: its writes must not feed any later read (or be
    /// overwritten — covered by RS ⊇ WS), and its reads must not have been
    /// written after its position. Every test is signature-gated, so a
    /// storm of spatially disjoint actions answers in O(suffix) cheap
    /// comparisons with no allocation.
    fn action_commutes(&self, key: Key, action: &A) -> bool {
        let rs = action.read_set();
        let ws = action.write_set();
        self.items
            .range(self.index_after(key)..)
            .all(|(_, item)| match item {
                LogItem::Action { action: e, .. } => {
                    !ws.intersects(e.read_set()) && !rs.intersects(e.write_set())
                }
                // A blind both "writes" its objects and carries values later
                // reads consumed; RS ⊇ WS collapses both checks into one.
                LogItem::Blind { objs, .. } => !rs.intersects(objs),
            })
    }

    /// Does a blind write of `objs` commute with every entry after `key`?
    fn blind_commutes(&self, key: Key, objs: &ObjectSet) -> bool {
        self.items
            .range(self.index_after(key)..)
            .all(|(_, item)| match item {
                LogItem::Action { action: e, .. } => !objs.intersects(e.read_set()),
                LogItem::Blind { objs: other, .. } => !objs.intersects(other),
            })
    }

    /// Reconcile a conflicting out-of-order action without replaying the
    /// log (indexing mode only). Two observations make this sound under
    /// the stored-outcome contract of [`ReplayLog::rebuild`]:
    ///
    /// * evaluation needs only the action's own footprint (read ∪ write
    ///   sets) materialized as of `key` — base ⊕ kept checkpoint deltas,
    ///   then the stored outcomes of the few entries between the nearest
    ///   boundary and `key`, all filtered to that footprint;
    /// * every later entry re-applies its stored outcome unchanged, so the
    ///   new tail state differs from the current cache by exactly the
    ///   inserted writes no later entry overwrites (attribute-granular
    ///   against later actions, object-granular against blind snapshots).
    ///
    /// The chain is never truncated: every boundary past `key` absorbs the
    /// inserted writes still live at it (live = first overwriter past the
    /// boundary). Patching only the first boundary would not suffice —
    /// a later delta may already hold the written object because its
    /// window touched a *different* attribute, and since deltas fold as
    /// whole-object snapshots its pre-insert capture would revert a
    /// surviving write. Writes dead at a boundary need no patch there:
    /// their overwriter re-asserted the attribute in that delta (via its
    /// dirty tracking or its own patch).
    fn reconcile_sparse(
        &mut self,
        key: Key,
        action: &A,
        eval: &mut impl FnMut(QueuePos, &A, &WorldState, bool) -> Outcome,
    ) -> Outcome {
        // --- Materialize the read∪write sets as of `key`. ---
        let kept = self.checkpoints.partition_point(|c| c.upto < key);
        if kept > 0 {
            self.checkpoint_hits += 1;
        }
        // The write set rides along so a whole-object boundary patch below
        // has complete objects even for write-only targets.
        let mut need = action.read_set().clone();
        need.union_with(action.write_set());
        let mut scratch = WorldState::new();
        // Newest-first walk of the kept deltas: the first delta holding an
        // object has its newest at-or-before-boundary value; whatever the
        // chain never touched keeps its base value.
        for id in need.iter() {
            let holder = self.checkpoints[..kept]
                .iter()
                .rev()
                .map(|c| &c.delta)
                .find(|delta| delta.contains(id))
                .unwrap_or(&self.base);
            scratch.copy_objects_from(holder, [id]);
        }
        // Roll the few entries between the boundary and `key` forward —
        // stored outcomes only, filtered to the objects the action can see.
        let from = match kept {
            0 => 0,
            n => self.index_after(self.checkpoints[n - 1].upto),
        };
        // `key` is not filed yet, so the items before it end where the
        // items after it begin.
        let suffix = self.index_after(key);
        for (_, item) in self.items.range(from..suffix) {
            match item {
                LogItem::Action { action: e, outcome } => {
                    if !need.intersects(e.write_set()) {
                        continue;
                    }
                    self.entries_replayed += 1;
                    let prev = outcome.as_ref().expect("indexed entries carry outcomes");
                    for (o2, a2, v2) in prev.writes.iter() {
                        if need.contains(o2) {
                            scratch.set_attr(o2, a2, v2);
                        }
                    }
                }
                LogItem::Blind { values, objs } => {
                    if !need.intersects(objs) {
                        continue;
                    }
                    self.entries_replayed += 1;
                    scratch.copy_objects_from(values, objs.iter().filter(|&id| need.contains(id)));
                }
            }
        }
        let o = eval(key.0, action, &scratch, true);

        // --- One suffix pass: where (if anywhere) is each inserted write
        // first overwritten? A write is live at the tail iff it has no
        // overwriter, and live at a checkpoint boundary `b` iff its first
        // overwriter lies past `b` — so liveness is monotone non-increasing
        // along the chain and the first-overwriter key decides it at every
        // boundary at once. ---
        let writes: Vec<_> = o.writes.iter().collect();
        let touched = o.writes.touched_objects();
        let mut first_kill: Vec<Option<Key>> = vec![None; writes.len()];
        for (k2, item) in self.items.range(suffix..) {
            if first_kill.iter().all(|k| k.is_some()) {
                break; // every write's first overwriter is known
            }
            match item {
                LogItem::Action { action: e, outcome } => {
                    // Signature gate; actual writes ⊆ the declared set.
                    if !touched.intersects(e.write_set()) {
                        continue;
                    }
                    let prev = outcome.as_ref().expect("indexed entries carry outcomes");
                    for (o2, a2, _) in prev.writes.iter() {
                        for (i, (wo, wa, _)) in writes.iter().enumerate() {
                            if *wo == o2 && *wa == a2 && first_kill[i].is_none() {
                                first_kill[i] = Some(*k2);
                            }
                        }
                    }
                }
                LogItem::Blind { objs, .. } => {
                    // A snapshot overwrites whole objects.
                    if !touched.intersects(objs) {
                        continue;
                    }
                    for (i, (wo, _, _)) in writes.iter().enumerate() {
                        if objs.contains(*wo) && first_kill[i].is_none() {
                            first_kill[i] = Some(*k2);
                        }
                    }
                }
            }
        }

        // --- Apply the surviving writes at the tail. ---
        let mut filtered = WriteLog::new();
        for (i, (wo, wa, v)) in writes.iter().enumerate() {
            if first_kill[i].is_none() {
                filtered.push(*wo, *wa, *v);
            }
        }
        self.cache.apply_writes(&filtered);

        // --- Keep the chain valid: every checkpoint past `key` must
        // reflect the inserted writes still live at its boundary. Deltas
        // fold as whole-object snapshots, so a later delta that captured
        // the object before this insert (its window touched a *different*
        // attribute) would otherwise revert a surviving write on any
        // materialization from it. The first boundary may need whole
        // objects added (no in-window toucher ⇒ the boundary value is the
        // at-`key` object); later deltas only ever take attribute patches,
        // and only when they already hold the object — otherwise they
        // inherit the patched value from an earlier delta by the fold. ---
        scratch.apply_writes(&o.writes); // at-`key` values incl. the new writes
        if kept < self.checkpoints.len() {
            for (ci, c) in self.checkpoints[kept..].iter_mut().enumerate() {
                let mut any_live = false;
                for (i, (wo, wa, v)) in writes.iter().enumerate() {
                    if first_kill[i].is_some_and(|k| k <= c.upto) {
                        continue; // re-asserted at this boundary by its overwriter
                    }
                    any_live = true;
                    if c.delta.contains(*wo) {
                        // The delta holds the object (another attribute was
                        // written in its window, or an earlier patch put it
                        // there); only this attribute takes the inserted
                        // value.
                        c.delta.set_attr(*wo, *wa, *v);
                    } else if ci == 0 {
                        c.delta.copy_objects_from(&scratch, [*wo]);
                    }
                    // Otherwise inherited from the patched earlier delta.
                }
                if !any_live {
                    break; // dead here ⇒ dead at every later boundary
                }
            }
            if self.materialized.as_ref().is_some_and(|(n, _)| kept < *n) {
                self.materialized = None;
            }
        } else {
            // Open tail window: the next checkpoint snapshots the cache,
            // which now carries the surviving writes.
            filtered.add_touched_to(&mut self.dirty);
        }
        o
    }

    /// After a commute splice at `key` touched `touched`, keep the
    /// checkpoint chain valid: every checkpoint past `key` must reflect the
    /// spliced writes. Because nothing after `key` touches these objects,
    /// their value at *every* later boundary is the cache value, and only
    /// the first checkpoint past `key` needs them in its delta (later
    /// deltas cannot contain them — no later item, nor any earlier splice
    /// still passing this gate, wrote them).
    fn patch_chain(&mut self, key: Key, touched: &ObjectSet) {
        if touched.is_empty() {
            return;
        }
        let idx = self.checkpoints.partition_point(|c| c.upto < key);
        if idx < self.checkpoints.len() {
            self.checkpoints[idx]
                .delta
                .copy_objects_from(&self.cache, touched);
            if self.materialized.as_ref().is_some_and(|(n, _)| idx < *n) {
                self.materialized = None;
            }
        } else {
            // The splice landed in the open tail window; fold it into the
            // running dirty set so the next checkpoint covers it.
            self.dirty.union_with(touched);
        }
    }

    /// Count one applied item towards the checkpoint cadence and cut a
    /// checkpoint at `key` when the interval is reached. The delta captures
    /// the dirty objects from the *materialized cache*, i.e. the true state
    /// at the boundary — supersets of the actually-touched set would be
    /// safe, stale values would not.
    fn maybe_checkpoint(&mut self, key: Key) {
        self.since_ckpt += 1;
        if self.since_ckpt >= self.checkpoint_interval {
            let mut delta = WorldState::new();
            delta.copy_objects_from(&self.cache, &self.dirty);
            self.checkpoints.push(Checkpoint { upto: key, delta });
            self.dirty.clear();
            self.since_ckpt = 0;
        }
    }

    /// Fold everything at or before `pos` into the checkpoint, using the
    /// stored outcomes (no re-evaluation). Items the client never received
    /// simply do not contribute — the checkpoint is the client's *partial*
    /// view of the committed state.
    pub fn gc(&mut self, pos: QueuePos) {
        if pos <= self.base_pos {
            return;
        }
        // Drain the prefix ≤ (pos, blind-phase, any arrival).
        let bound: Key = (pos + 1, 0, 0);
        let folded = self.index_of(bound);
        for (key, item) in self.items.drain(..folded) {
            match item {
                LogItem::Action { outcome, .. } => {
                    let o = outcome.unwrap_or_else(|| {
                        // An action can lack an outcome only if it was
                        // inserted during a rebuild that never completed —
                        // impossible by construction.
                        debug_assert!(false, "GC of an unevaluated action at {key:?}");
                        Outcome::abort()
                    });
                    self.base.apply_writes(&o.writes);
                }
                LogItem::Blind { values, .. } => self.base.overlay(&values),
            }
        }
        self.base_pos = pos;
        // Checkpoints covering only folded items are subsumed by the new
        // base. Survivors stay valid against it: any fold-window touch
        // past a survivor's predecessor is re-asserted by that survivor's
        // delta, and objects last touched inside the folded span carry the
        // same value in the new base as in the dropped deltas.
        let drop_n = self.checkpoints.partition_point(|c| c.upto < bound);
        if drop_n > 0 {
            self.checkpoints.drain(..drop_n);
            // The memo indexes the old chain; rebuilt lazily.
            self.materialized = None;
        }
        // The cache is unaffected: base ⊕ remaining items is unchanged.
    }

    fn next_arrival(&mut self) -> u64 {
        self.arrivals += 1;
        self.arrivals
    }

    /// Replay the log suffix affected by the out-of-order insert just filed
    /// at `inserted`, starting from the nearest checkpoint before it (or
    /// from base in oracle/verification mode).
    ///
    /// Only items without a stored outcome (normally exactly the one just
    /// inserted) are *evaluated*; everything else re-applies its stored
    /// writes. That is sound because of the Algorithm 6 closure contract:
    /// an action that could change an already-evaluated action's inputs
    /// would have been delivered in that action's closure, so late arrivals
    /// never alter existing outcomes. `verify_rebuilds` re-evaluates
    /// everything anyway and counts divergences — the verification mode
    /// integration tests run to *check* the contract.
    fn rebuild(
        &mut self,
        inserted: Key,
        eval: &mut impl FnMut(QueuePos, &A, &WorldState, bool) -> Outcome,
    ) {
        let indexing = self.indexing();
        // Checkpoints past the insertion point no longer describe the log;
        // drop them (they are recreated below as the replay runs).
        let kept = if indexing {
            self.checkpoints.partition_point(|c| c.upto < inserted)
        } else {
            0
        };
        self.checkpoints.truncate(kept);
        if kept > 0 {
            self.checkpoint_hits += 1;
        }
        // Materialize the start state: base ⊕ delta_1 ⊕ … ⊕ delta_kept,
        // resuming from the memoized prefix when it still applies.
        let mut state;
        let done = match self.materialized.take() {
            Some((n, s)) if n <= kept => {
                state = s;
                n
            }
            _ => {
                state = self.base.clone();
                0
            }
        };
        for c in &self.checkpoints[done..] {
            state.overlay(&c.delta);
        }
        if kept > 0 {
            self.materialized = Some((kept, state.clone()));
        }
        let from = self.checkpoints.last().map(|c| c.upto);
        self.dirty.clear();
        self.since_ckpt = 0;
        let start = from.map_or(0, |k| self.index_after(k));
        let mut hi = from;
        for (key, item) in self.items.range_mut(start..) {
            self.entries_replayed += 1;
            match item {
                LogItem::Action { action, outcome } => {
                    if let (false, Some(prev)) = (self.verify_rebuilds, outcome.as_ref()) {
                        // Re-apply the stored outcome, borrowed — no clone.
                        state.apply_writes(&prev.writes);
                        if indexing {
                            prev.writes.add_touched_to(&mut self.dirty);
                        }
                    } else {
                        let first_time = outcome.is_none();
                        let o = eval(key.0, action, &state, first_time);
                        if let Some(prev) = outcome.as_ref() {
                            // A divergence here means the server sent
                            // support too late — a closure violation.
                            if *prev != o {
                                self.divergences += 1;
                            }
                        }
                        state.apply_writes(&o.writes);
                        if indexing {
                            o.writes.add_touched_to(&mut self.dirty);
                        }
                        *outcome = Some(o);
                    }
                }
                LogItem::Blind { values, objs } => {
                    state.overlay(values);
                    if indexing {
                        self.dirty.union_with(objs);
                    }
                }
            }
            if indexing {
                self.since_ckpt += 1;
                if self.since_ckpt >= self.checkpoint_interval {
                    let mut delta = WorldState::new();
                    delta.copy_objects_from(&state, &self.dirty);
                    self.checkpoints.push(Checkpoint { upto: *key, delta });
                    self.dirty.clear();
                    self.since_ckpt = 0;
                }
            }
            hi = Some(*key);
        }
        self.cache = state;
        self.applied_hi = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::action::Influence;
    use seve_world::geometry::Vec2;
    use seve_world::ids::{ActionId, AttrId, ClientId, ObjectId};
    use seve_world::objset::ObjectSet;
    use seve_world::state::WriteLog;
    use seve_world::value::Value;

    const X: ObjectId = ObjectId(0);
    const V: AttrId = AttrId(0);

    /// An action that increments one attribute of one object by `delta` —
    /// evaluation genuinely depends on the prior state, so replay order is
    /// observable.
    #[derive(Clone, Debug, serde::Serialize)]
    struct AddAction {
        id: ActionId,
        delta: i64,
        attr: AttrId,
        set: ObjectSet,
    }

    impl AddAction {
        fn new(seq: u32, delta: i64) -> Self {
            Self::on(seq, X, delta)
        }

        /// An increment of `obj`'s counter (for commute tests).
        fn on(seq: u32, obj: ObjectId, delta: i64) -> Self {
            Self::on_attr(seq, obj, V, delta)
        }

        /// An increment of a specific attribute (for masking tests).
        fn on_attr(seq: u32, obj: ObjectId, attr: AttrId, delta: i64) -> Self {
            Self {
                id: ActionId::new(ClientId(0), seq),
                delta,
                attr,
                set: ObjectSet::singleton(obj),
            }
        }
    }

    impl Action for AddAction {
        type Env = ();
        fn id(&self) -> ActionId {
            self.id
        }
        fn read_set(&self) -> &ObjectSet {
            &self.set
        }
        fn write_set(&self) -> &ObjectSet {
            &self.set
        }
        fn influence(&self) -> Influence {
            Influence::sphere(Vec2::ZERO, 0.0)
        }
        fn evaluate(&self, _env: &(), s: &WorldState) -> Outcome {
            let obj = self.set.iter().next().unwrap();
            let cur = s.attr(obj, self.attr).and_then(|v| v.as_i64()).unwrap_or(0);
            let mut w = WriteLog::new();
            w.push(obj, self.attr, (cur + self.delta).into());
            Outcome::ok(w)
        }
    }

    fn initial() -> WorldState {
        let mut s = WorldState::new();
        s.set_attr(X, V, 0i64.into());
        s
    }

    fn ev(pos: QueuePos, a: &AddAction, s: &WorldState, _first: bool) -> Outcome {
        let _ = pos;
        a.evaluate(&(), s)
    }

    fn x_of(s: &WorldState) -> i64 {
        s.attr(X, V).unwrap().as_i64().unwrap()
    }

    #[test]
    fn in_order_inserts_extend_incrementally() {
        let mut log = ReplayLog::new(initial());
        let r1 = log.insert_action(1, AddAction::new(0, 5), ev);
        assert!(!r1.rebuilt);
        assert_eq!(x_of(log.state()), 5);
        let r2 = log.insert_action(2, AddAction::new(1, 3), ev);
        assert!(!r2.rebuilt);
        assert_eq!(x_of(log.state()), 8);
        assert_eq!(log.log_len(), 2);
    }

    #[test]
    fn out_of_order_insert_rebuilds_in_position_order() {
        let mut log = ReplayLog::new(initial());
        log.set_verify_rebuilds(true);
        log.insert_action(3, AddAction::new(1, 10), ev);
        assert_eq!(x_of(log.state()), 10);
        // Older action arrives late: value must reflect position order
        // (1 then 3), not arrival order.
        let r = log.insert_action(1, AddAction::new(0, 1), ev);
        assert!(r.rebuilt);
        assert_eq!(r.outcome.unwrap().writes.len(), 1);
        assert_eq!(x_of(log.state()), 11);
    }

    #[test]
    fn blind_write_applies_at_its_position() {
        let mut log = ReplayLog::new(initial());
        log.set_verify_rebuilds(true);
        log.insert_action(2, AddAction::new(0, 7), ev);
        // Blind as_of 1 arrives late: it must apply *before* action 2 in
        // replay order. Snapshot sets X to 100, so the final X = 107.
        let mut snap = Snapshot::new();
        let mut obj = seve_world::WorldObject::new();
        obj.set(V, Value::I64(100));
        snap.push(X, obj);
        let r = log.insert_blind(1, &snap, ev);
        assert!(r.rebuilt);
        assert_eq!(x_of(log.state()), 107);
    }

    #[test]
    fn blind_older_than_checkpoint_is_ignored() {
        let mut log = ReplayLog::new(initial());
        log.insert_action(1, AddAction::new(0, 5), ev);
        log.gc(1);
        let mut snap = Snapshot::new();
        let mut obj = seve_world::WorldObject::new();
        obj.set(V, Value::I64(999));
        snap.push(X, obj);
        let r = log.insert_blind(0, &snap, ev);
        assert!(!r.rebuilt);
        assert_eq!(x_of(log.state()), 5, "stale blind discarded");
    }

    #[test]
    fn gc_folds_prefix_without_reevaluation() {
        let mut log = ReplayLog::new(initial());
        let evals = std::cell::Cell::new(0usize);
        let counting = |p: QueuePos, a: &AddAction, s: &WorldState, f: bool| {
            evals.set(evals.get() + 1);
            ev(p, a, s, f)
        };
        log.insert_action(1, AddAction::new(0, 1), counting);
        log.insert_action(2, AddAction::new(1, 2), counting);
        log.insert_action(3, AddAction::new(2, 4), counting);
        assert_eq!(evals.get(), 3);
        log.gc(2);
        assert_eq!(evals.get(), 3, "gc performed no evaluations");
        assert_eq!(log.base_pos(), 2);
        assert_eq!(log.log_len(), 1);
        assert_eq!(x_of(log.state()), 7, "cache unchanged by gc");
        // Later out-of-order-free insert still works on the new base.
        log.insert_action(4, AddAction::new(3, 8), counting);
        assert_eq!(x_of(log.state()), 15);
    }

    #[test]
    fn rebuild_after_gc_replays_only_the_suffix() {
        let mut log = ReplayLog::new(initial());
        log.set_verify_rebuilds(true);
        log.insert_action(1, AddAction::new(0, 1), ev);
        log.insert_action(2, AddAction::new(1, 2), ev);
        log.gc(2);
        log.insert_action(5, AddAction::new(2, 16), ev);
        // pos 4 arrives late → rebuild from base (X = 3).
        let mut evals = Vec::new();
        log.insert_action(4, AddAction::new(3, 8), |p, a, s, f| {
            evals.push((p, f));
            ev(p, a, s, f)
        });
        assert_eq!(x_of(log.state()), 27);
        // Rebuild evaluated 4 (first time) and 5 (again).
        assert_eq!(evals, vec![(4, true), (5, false)]);
    }

    /// `gc(p)` folds everything filed at or before the blind-write phase of
    /// `p` — an action at `p`, a blind as of `p` — and keeps the action at
    /// `p + 1`: a late action between them reads the blind's value from the
    /// new base.
    #[test]
    fn gc_folds_the_blind_as_of_its_position_and_keeps_the_next_action() {
        let mut log = ReplayLog::new(initial());
        log.insert_action(1, AddAction::new(0, 1), ev);
        log.insert_action(2, AddAction::new(1, 2), ev);
        let mut snap = Snapshot::new();
        let mut obj = seve_world::WorldObject::new();
        obj.set(V, Value::I64(100));
        snap.push(X, obj);
        assert!(!log.insert_blind(2, &snap, ev).rebuilt, "in order");
        log.insert_action(4, AddAction::new(3, 5), ev);
        assert_eq!(x_of(log.state()), 105);
        log.gc(2);
        assert_eq!(log.base_pos(), 2);
        assert_eq!(log.log_len(), 1, "only the action at 4 is held");
        assert!(log.has_action(4));
        assert!(!log.has_action(3));
        assert_eq!(x_of(log.state()), 105, "cache unchanged by gc");
        // Position 3 arrives late: it reads X as of 3, i.e. the blind's 100
        // from the base (not 3, had the blind been dropped, nor 105, had the
        // action at 4 been folded too).
        let r = log.insert_action(3, AddAction::new(2, 7), ev);
        assert!(r.rebuilt);
        assert_eq!(
            r.outcome.unwrap().writes.iter().next().unwrap().2,
            Value::I64(107)
        );
        assert_eq!(x_of(log.state()), 105, "the action at 4 keeps its outcome");
        log.gc(3);
        assert_eq!(log.log_len(), 1, "still the action at 4");
        log.gc(4);
        assert_eq!(log.log_len(), 0);
        assert_eq!(x_of(log.state()), 105);
    }

    /// A late item is filed at its position whether that is the head of the
    /// log or just before its tail: a verifying rebuild walks the log in
    /// store order, and it must see positions ascending.
    #[test]
    fn late_inserts_at_the_head_and_before_the_tail_land_in_position_order() {
        let mut log = ReplayLog::new(initial());
        log.set_verify_rebuilds(true);
        for p in [2, 3, 4, 6] {
            log.insert_action(p, AddAction::new(p as u32, 1), ev);
        }
        for (late, want) in [(1, vec![1, 2, 3, 4, 6]), (5, vec![1, 2, 3, 4, 5, 6])] {
            let mut order = Vec::new();
            log.insert_action(late, AddAction::new(late as u32, 1), |p, a, s, f| {
                order.push(p);
                ev(p, a, s, f)
            });
            assert_eq!(order, want, "late {late}");
            assert!(log.has_action(late));
        }
        assert_eq!(x_of(log.state()), 6);
        log.gc(3);
        assert_eq!(log.log_len(), 3, "4, 5 and 6 are held");
        assert!((1..=6).all(|p| log.has_action(p)));
        assert!(!log.has_action(7));
    }

    #[test]
    fn has_action_reports_positions() {
        let mut log = ReplayLog::new(initial());
        log.insert_action(2, AddAction::new(0, 1), ev);
        assert!(log.has_action(2));
        assert!(!log.has_action(1));
        log.gc(2);
        assert!(log.has_action(2), "folded positions count as present");
        assert!(log.has_action(1), "positions before the checkpoint too");
    }

    /// Fill `log` with one conflicting increment per position in `range`
    /// (all touch X, so nothing commutes).
    fn fill(log: &mut ReplayLog<AddAction>, range: std::ops::RangeInclusive<u64>) {
        for p in range {
            log.insert_action(p, AddAction::new(p as u32, 1), ev);
        }
    }

    #[test]
    fn checkpointed_insert_replays_only_the_in_window_prefix() {
        let mut log = ReplayLog::new(initial());
        log.set_checkpoint_interval(4);
        fill(&mut log, 1..=12);
        assert_eq!(log.checkpoints_len(), 3, "checkpoint every 4 items");
        // Delay position 13, apply 14..=20, then deliver 13 late: sparse
        // reconciliation resumes at the checkpoint after item 12, and 13
        // lands right at that boundary — nothing between them to replay.
        fill(&mut log, 14..=20);
        let before = log.entries_replayed();
        let r = log.insert_action(13, AddAction::new(13, 1), ev);
        assert!(r.rebuilt);
        assert_eq!(log.checkpoint_hits(), 1);
        assert_eq!(
            log.entries_replayed() - before,
            0,
            "boundary-aligned insert materializes its read set for free"
        );
        // 14..=20 keep their *stored* outcomes (the non-verify contract),
        // so the late 13 does not ripple into them.
        assert_eq!(x_of(log.state()), 19);
        // A second straggler mid-window: the in-order cadence cuts a
        // checkpoint at position 21, then 22 and 24 apply and 23 lands
        // late. The window (21, 23) holds one entry — 22 — and only it is
        // replayed; the suffix entry 24 is scanned for shadowing, never
        // re-applied.
        fill(&mut log, 21..=22);
        fill(&mut log, 24..=24);
        let before = log.entries_replayed();
        log.insert_action(23, AddAction::new(23, 1), ev);
        assert_eq!(log.entries_replayed() - before, 1, "only entry 22");
        // Reference: an oracle log fed the same schedule agrees exactly.
        let mut oracle = ReplayLog::new(initial());
        oracle.set_checkpoint_interval(0);
        fill(&mut oracle, 1..=12);
        fill(&mut oracle, 14..=20);
        oracle.insert_action(13, AddAction::new(13, 1), ev);
        fill(&mut oracle, 21..=22);
        fill(&mut oracle, 24..=24);
        oracle.insert_action(23, AddAction::new(23, 1), ev);
        assert_eq!(log.state().digest(), oracle.state().digest());
        assert_eq!(log.divergences(), 0);
    }

    #[test]
    fn commuting_insert_splices_without_replay() {
        let y = ObjectId(7);
        let mut log = ReplayLog::new(initial());
        log.set_checkpoint_interval(4);
        fill(&mut log, 1..=10);
        let before = log.entries_replayed();
        // Position 11 delayed; 12..=16 (on X) apply first; 11 touches only
        // Y, disjoint from everything later → splice, no replay.
        fill(&mut log, 12..=16);
        let r = log.insert_action(11, AddAction::on(11, y, 5), ev);
        assert!(r.rebuilt, "protocol-visible rebuild count is unchanged");
        assert_eq!(log.commute_hits(), 1);
        assert_eq!(log.entries_replayed(), before, "no entries replayed");
        assert_eq!(x_of(log.state()), 15);
        assert_eq!(
            log.state().attr(y, V).and_then(|v| v.as_i64()),
            Some(5),
            "spliced write landed"
        );
        // A later rebuild through the patched chain still agrees with the
        // oracle (the splice patched the checkpoint past position 11).
        fill(&mut log, 18..=24);
        log.insert_action(17, AddAction::new(17, 1), ev);
        let mut oracle = ReplayLog::new(initial());
        oracle.set_checkpoint_interval(0);
        fill(&mut oracle, 1..=10);
        fill(&mut oracle, 12..=16);
        oracle.insert_action(11, AddAction::on(11, y, 5), ev);
        fill(&mut oracle, 18..=24);
        oracle.insert_action(17, AddAction::new(17, 1), ev);
        assert_eq!(log.state().digest(), oracle.state().digest());
        assert_eq!(log.divergences(), 0);
    }

    #[test]
    fn conflicting_insert_never_takes_the_fast_path() {
        let mut log = ReplayLog::new(initial());
        log.set_checkpoint_interval(4);
        fill(&mut log, 1..=6);
        // Position 7 delayed; 8 (also on X) applies first. 7's write feeds
        // 8's read, so the splice gate must refuse and the rebuild must
        // re-serialize them in position order.
        fill(&mut log, 8..=8);
        let r = log.insert_action(7, AddAction::new(7, 100), ev);
        assert!(r.rebuilt);
        assert_eq!(log.commute_hits(), 0, "overlapping write set: no splice");
        let mut oracle = ReplayLog::new(initial());
        oracle.set_checkpoint_interval(0);
        fill(&mut oracle, 1..=6);
        fill(&mut oracle, 8..=8);
        oracle.insert_action(7, AddAction::new(7, 100), ev);
        assert_eq!(log.state().digest(), oracle.state().digest());
    }

    #[test]
    fn sparse_masking_is_attribute_granular() {
        // Declared sets are object-granular (both stragglers conflict on X
        // and fail the commute gate), but shadowing must compare *stored
        // writes* per attribute: a later writer of X.V must not suppress a
        // late write to X.W of the same object.
        let w = AttrId(1);
        let mut log = ReplayLog::new(initial());
        log.set_checkpoint_interval(4);
        fill(&mut log, 1..=3);
        // Delay 4 (writes X.W); 5 (writes X.V) applies first.
        fill(&mut log, 5..=5);
        log.insert_action(4, AddAction::on_attr(4, X, w, 40), ev);
        assert_eq!(log.commute_hits(), 0, "same object: gate refuses");
        assert_eq!(
            log.state().attr(X, w).and_then(|v| v.as_i64()),
            Some(40),
            "X.W survives — only X.V had a later writer"
        );
        assert_eq!(x_of(log.state()), 4, "X.V keeps entry 5's stored value");
        // And the converse: a late X.V write *is* shadowed by entry 5.
        fill(&mut log, 7..=7);
        log.insert_action(6, AddAction::new(6, 100), ev);
        let mut oracle = ReplayLog::new(initial());
        oracle.set_checkpoint_interval(0);
        fill(&mut oracle, 1..=3);
        fill(&mut oracle, 5..=5);
        oracle.insert_action(4, AddAction::on_attr(4, X, w, 40), ev);
        fill(&mut oracle, 7..=7);
        oracle.insert_action(6, AddAction::new(6, 100), ev);
        assert_eq!(log.state().digest(), oracle.state().digest());
        assert_eq!(log.divergences(), 0);
    }

    #[test]
    fn sparse_insert_patches_every_later_checkpoint() {
        // Regression: a checkpoint *past the first boundary* whose delta
        // already holds the written object (because its window touched a
        // different attribute) must also absorb a surviving write — deltas
        // fold as whole-object snapshots, so its pre-insert capture would
        // otherwise revert the write when a later reconciliation
        // materializes from that checkpoint.
        let w = AttrId(1);
        let mut log = ReplayLog::new(initial());
        log.set_checkpoint_interval(2);
        fill(&mut log, 1..=1);
        fill(&mut log, 3..=5);
        assert_eq!(log.checkpoints_len(), 2, "boundaries at 3 and 5");
        // Straggler 2 writes X.W: the first boundary (3) takes the
        // whole-object patch; the boundary at 5, whose delta holds X from
        // the X.V writes at 4 and 5, must take the attribute patch too.
        log.insert_action(2, AddAction::on_attr(2, X, w, 40), ev);
        fill(&mut log, 7..=7);
        // Straggler 6 reads/writes X.W, materializing X from the
        // checkpoint at 5.
        let r6 = log.insert_action(6, AddAction::on_attr(6, X, w, 2), ev);

        let mut oracle = ReplayLog::new(initial());
        oracle.set_checkpoint_interval(0);
        fill(&mut oracle, 1..=1);
        fill(&mut oracle, 3..=5);
        oracle.insert_action(2, AddAction::on_attr(2, X, w, 40), ev);
        fill(&mut oracle, 7..=7);
        let o6 = oracle.insert_action(6, AddAction::on_attr(6, X, w, 2), ev);

        assert_eq!(r6, o6, "straggler 6 must read X.W = 40 at its position");
        assert_eq!(
            log.state().attr(X, w).and_then(|v| v.as_i64()),
            Some(42),
            "both X.W writes survive to the tail"
        );
        assert_eq!(log.state().digest(), oracle.state().digest());
        assert_eq!(log.divergences(), 0);
    }

    #[test]
    fn gc_drops_subsumed_checkpoints_and_keeps_the_chain_valid() {
        let mut log = ReplayLog::new(initial());
        log.set_checkpoint_interval(4);
        fill(&mut log, 1..=16);
        assert_eq!(log.checkpoints_len(), 4);
        log.gc(9);
        assert_eq!(
            log.checkpoints_len(),
            2,
            "checkpoints at 4 and 8 are subsumed by the base"
        );
        // An out-of-order insert after GC rebuilds through the surviving
        // chain and still matches the oracle.
        fill(&mut log, 18..=20);
        log.insert_action(17, AddAction::new(17, 1), ev);
        let mut oracle = ReplayLog::new(initial());
        oracle.set_checkpoint_interval(0);
        fill(&mut oracle, 1..=16);
        oracle.gc(9);
        fill(&mut oracle, 18..=20);
        oracle.insert_action(17, AddAction::new(17, 1), ev);
        assert_eq!(log.state().digest(), oracle.state().digest());
        assert_eq!(log.base_pos(), oracle.base_pos());
        assert_eq!(log.divergences(), 0);
    }
}
