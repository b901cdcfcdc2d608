//! The server's action queue, transitive-closure computation
//! (Algorithm 6), and chain-breaking analysis (Algorithm 7).
//!
//! The server's only data structures are the authoritative state ζ_S and a
//! queue of uncommitted actions with per-action bookkeeping: which clients
//! each action has been sent to (`sent(a)`), its completion if received,
//! and its Algorithm 7 validity. Both algorithms are backwards scans over
//! the queue intersecting read/write sets:
//!
//! * [`closure_for`] — given candidate actions to deliver to a client,
//!   collect the transitively conflicting *unsent* actions that must
//!   accompany them, and the residual read-set `S` to be satisfied by a
//!   blind write `W(S, ζ_S(S))`. One client per call: the Incomplete World
//!   Model's reply to a submission, and the oracle of the pass below.
//! * [`SlicedClosure`] — the same computation for every client of a push
//!   cycle in one descending pass, the support sets kept as per-object
//!   client bitmasks (see the `sliced` module docs).
//! * [`analyze_new_actions`] — Algorithm 7's `onNextTick`: walk each newly
//!   submitted action's conflict chain; if the chain reaches an action
//!   farther than `threshold`, drop the new action.
//!
//! All scans are **index-driven**: the queue maintains an inverted write
//! index (object → ascending postings of live positions whose write set
//! contains it), and the scans jump from conflict to conflict through
//! descending per-object cursors (a [`Frontier`] per walk; one cursor per
//! live object, shared by all clients, in the sliced pass) instead of
//! examining every entry — O(conflicts · log) rather than O(queue). The
//! pre-index linear scans survive as [`closure_for_linear`] and
//! [`analyze_new_actions_linear`]; the indexed paths are bit-identical to
//! them (proptested in `tests/prop_core.rs`), including the `sent`-bit and
//! `dropped`-mark side effects, and still report the linear-equivalent
//! `scanned` count so the simulated cost model is unchanged.

use crate::msg::Shared;
use seve_net::time::SimTime;
use seve_world::action::{Action, Influence, Outcome};
use seve_world::ids::{ClientId, ObjectId, QueuePos};
use seve_world::objset::ObjectSet;
use std::collections::{hash_map, BTreeMap, HashMap, VecDeque};

mod sliced;
pub use sliced::SlicedClosure;

/// A growable bitmap over client indices — the `sent(a)` set.
#[derive(Clone, Debug, Default)]
pub struct ClientSet {
    words: Vec<u64>,
}

impl ClientSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is `c` in the set?
    #[inline]
    pub fn contains(&self, c: ClientId) -> bool {
        let i = c.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Insert `c`; returns whether it was newly inserted.
    pub fn insert(&mut self, c: ClientId) -> bool {
        let i = c.index();
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        let bit = 1 << (i % 64);
        let newly = self.words[i / 64] & bit == 0;
        self.words[i / 64] |= bit;
        newly
    }

    /// The `i`-th 64-client word of the set: bit `b` is client `64·i + b`.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Insert every client whose bit is set in `bits` into word `i`.
    pub fn or_word(&mut self, i: usize, bits: u64) {
        if self.words.len() <= i {
            self.words.resize(i + 1, 0);
        }
        self.words[i] |= bits;
    }

    /// Number of clients in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// One uncommitted action held by the server.
#[derive(Clone, Debug)]
pub struct QueueEntry<A> {
    /// The serialization position `pos(a)`.
    pub pos: QueuePos,
    /// The action itself — the single stored copy of its read/write sets
    /// (see [`QueueEntry::rs`] / [`QueueEntry::ws`]). Refcounted so egress
    /// batch items share it instead of deep-copying per recipient.
    pub action: Shared<A>,
    /// Cached influence, for the bound tests.
    pub influence: Influence,
    /// When the action was received by the server.
    pub submit_time: SimTime,
    /// Which clients this action has been sent to — `sent(a)` of
    /// Algorithm 5.
    pub sent: ClientSet,
    /// The completion (stable outcome) if one has arrived.
    pub completion: Option<Outcome>,
    /// Dropped by Algorithm 7: the action is a no-op everywhere.
    pub dropped: bool,
}

impl<A: Action> QueueEntry<A> {
    /// `RS(a)` — read straight off the stored action. Enqueue used to clone
    /// both sets into the entry; the action itself is the cache now, and
    /// its [`ObjectSet`]s carry the occupancy signatures the `WS ∩ S` tests
    /// of Algorithms 6 and 7 fast-reject on.
    #[inline]
    pub fn rs(&self) -> &ObjectSet {
        self.action.read_set()
    }

    /// `WS(a)` — likewise read off the stored action.
    #[inline]
    pub fn ws(&self) -> &ObjectSet {
        self.action.write_set()
    }
}

/// The server's global queue of uncommitted actions, positions assigned
/// densely from 1.
///
/// Alongside the entries, the queue maintains an **inverted write index**:
/// for every object, the ascending list of live queue positions whose write
/// set contains it. `push` appends to the postings (positions are assigned
/// in ascending order, so appending preserves sortedness) and `pop_front`
/// trims them, so the index is an exact function of the live entries at all
/// times — including entries marked `dropped`, whose postings stay and are
/// skipped at traversal time, keeping the index correct even when drop
/// marks are applied directly through [`ActionQueue::get_mut`].
pub struct ActionQueue<A> {
    entries: VecDeque<QueueEntry<A>>,
    /// Position that will be assigned to the next pushed action.
    next_pos: QueuePos,
    /// Inverted write index: object → ascending positions of live entries
    /// whose write set contains the object.
    index: PostingsMap,
}

/// Hashes the `u32` inside an [`ObjectId`] with one Fibonacci multiply.
/// Object ids are small and dense, and the postings map is probed on every
/// cursor seed of the closure hot path — the default collision-resistant
/// hasher costs more there than the attack it guards against.
#[derive(Clone, Copy, Default)]
pub(crate) struct ObjectIdHasher(u64);

impl std::hash::Hasher for ObjectIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by [`ObjectId`] under [`ObjectIdHasher`] — the queue's
/// inverted write index, the sliced closure's mask rows and the egress
/// version tables all probe one per object on the push path.
pub(crate) type ObjectIdMap<V> =
    HashMap<ObjectId, V, std::hash::BuildHasherDefault<ObjectIdHasher>>;

/// The inverted write index's map type.
type PostingsMap = ObjectIdMap<Vec<QueuePos>>;

impl<A: Action> Default for ActionQueue<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Action> ActionQueue<A> {
    /// An empty queue; the first action gets position 1.
    pub fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            next_pos: 1,
            index: PostingsMap::default(),
        }
    }

    /// Number of uncommitted entries held.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of the oldest held entry (or `next_pos` if empty).
    #[inline]
    pub fn first_pos(&self) -> QueuePos {
        self.next_pos - self.entries.len() as QueuePos
    }

    /// The position of the newest held entry, if any.
    pub fn last_pos(&self) -> Option<QueuePos> {
        (!self.entries.is_empty()).then(|| self.next_pos - 1)
    }

    /// Timestamp and enqueue an action (Algorithm 2 step a), returning its
    /// position. The action's read/write sets are *not* copied — the entry
    /// reads them straight off the stored action — and its write set is
    /// folded into the inverted index.
    pub fn push(&mut self, action: A, now: SimTime) -> QueuePos {
        let pos = self.next_pos;
        self.next_pos += 1;
        debug_assert!(
            action
                .write_set()
                .iter_not_in(action.read_set())
                .next()
                .is_none(),
            "RS(a) must contain WS(a)"
        );
        for o in action.write_set().iter() {
            // Positions are assigned in ascending order, so appending keeps
            // every postings list sorted.
            self.index.entry(o).or_default().push(pos);
        }
        let influence = action.influence();
        self.entries.push_back(QueueEntry {
            pos,
            action: Shared::new(action),
            influence,
            submit_time: now,
            sent: ClientSet::new(),
            completion: None,
            dropped: false,
        });
        pos
    }

    /// The entry at `pos`, if still held.
    pub fn get(&self, pos: QueuePos) -> Option<&QueueEntry<A>> {
        let first = self.first_pos();
        if pos < first || pos >= self.next_pos {
            return None;
        }
        self.entries.get((pos - first) as usize)
    }

    /// Mutable access to the entry at `pos`.
    pub fn get_mut(&mut self, pos: QueuePos) -> Option<&mut QueueEntry<A>> {
        let first = self.first_pos();
        if pos < first || pos >= self.next_pos {
            return None;
        }
        self.entries.get_mut((pos - first) as usize)
    }

    /// The oldest held entry.
    pub fn front(&self) -> Option<&QueueEntry<A>> {
        self.entries.front()
    }

    /// Discard the oldest held entry (after install, Algorithm 5 step 5),
    /// trimming its write set out of the inverted index.
    pub fn pop_front(&mut self) -> Option<QueueEntry<A>> {
        let e = self.entries.pop_front()?;
        for o in e.ws().iter() {
            if let hash_map::Entry::Occupied(mut slot) = self.index.entry(o) {
                let list = slot.get_mut();
                // The popped entry is the oldest live position, so its
                // posting sits at the front of the ascending list.
                debug_assert_eq!(list.first(), Some(&e.pos), "index out of sync");
                if list.first() == Some(&e.pos) {
                    list.remove(0);
                }
                if list.is_empty() {
                    slot.remove();
                }
            }
        }
        Some(e)
    }

    /// The ascending live positions whose write set contains `o` — one
    /// postings list of the inverted index.
    #[inline]
    pub fn postings(&self, o: ObjectId) -> &[QueuePos] {
        self.index.get(&o).map_or(&[], Vec::as_slice)
    }

    /// A sorted snapshot of the whole inverted index, for invariant checks
    /// (the index must always equal a rebuild from the live entries).
    pub fn index_snapshot(&self) -> BTreeMap<ObjectId, Vec<QueuePos>> {
        self.index
            .iter()
            .map(|(&o, list)| (o, list.clone()))
            .collect()
    }

    /// Iterate over held entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry<A>> {
        self.entries.iter()
    }

    /// Iterate mutably, newest first (the scan direction of Algorithms 6
    /// and 7). Callers may flip per-entry run state (`sent`, `dropped`,
    /// `completion`) but must not alter the action itself — the inverted
    /// index mirrors its write set.
    pub fn iter_mut_rev(&mut self) -> impl Iterator<Item = &mut QueueEntry<A>> {
        self.entries.iter_mut().rev()
    }
}

/// A descending frontier over the inverted write index: a small set of
/// per-object cursors, one per object of the accumulated support set `S`
/// (plus the occasional stale duplicate), each parked on a posting strictly
/// below the last position it was advanced past. Visiting the maximum
/// cursor position each round yields exactly the positions whose write sets
/// can intersect `S` — the scan jumps from conflict to conflict instead of
/// examining every entry.
///
/// Cursors are *hints*, not proofs: a cursor whose object has since left
/// `S` (closure subtracts already-sent write sets) is retired lazily when
/// popped, and the visit re-checks the exact `WS ∩ S` predicate, so a stale
/// or duplicate cursor costs one extra visit and can never change the
/// result.
struct Frontier<'i> {
    index: &'i PostingsMap,
    /// Live cursors, unsorted. The support set is a handful of objects, so
    /// a linear max-scan beats a binary heap's churn (measured ~40% faster
    /// on the Manhattan closure workload).
    cursors: Vec<Cursor<'i>>,
}

/// One parked cursor: `list` is its object's full postings list and
/// `list[idx] == pos`, so advancing one posting lower is an array step —
/// no map lookup or binary search after the initial seed.
struct Cursor<'i> {
    pos: QueuePos,
    obj: ObjectId,
    list: &'i [QueuePos],
    idx: usize,
}

impl<'i> Frontier<'i> {
    fn new(index: &'i PostingsMap) -> Self {
        Self {
            index,
            cursors: Vec::new(),
        }
    }

    /// A frontier with pre-sized cursor storage. The frontier borrows the
    /// tick's index so it cannot live in [`AnalyzeScratch`] itself; the
    /// scratch carries its high-water mark across ticks instead.
    fn with_capacity(index: &'i PostingsMap, cap: usize) -> Self {
        Self {
            index,
            cursors: Vec::with_capacity(cap),
        }
    }

    /// The cursor capacity actually grown into (next tick's pre-size).
    fn high_water(&self) -> usize {
        self.cursors.capacity()
    }

    /// Park a cursor for `o` on its largest posting strictly below `below`
    /// (an object entering `S` for the first time in this walk).
    fn seed(&mut self, o: ObjectId, below: QueuePos) {
        if let Some(list) = self.index.get(&o) {
            let i = list.partition_point(|&q| q < below);
            if i > 0 {
                self.cursors.push(Cursor {
                    pos: list[i - 1],
                    obj: o,
                    list,
                    idx: i - 1,
                });
            }
        }
    }

    /// The highest parked position, if any.
    #[inline]
    fn peek_pos(&self) -> Option<QueuePos> {
        self.cursors.iter().map(|c| c.pos).max()
    }

    /// After visiting `pos`: step every cursor parked there one posting
    /// lower, in place; cursors that are exhausted or whose object is no
    /// longer in `retain` (it left `S` via the sent-subtract case) are
    /// retired.
    fn advance_at(&mut self, pos: QueuePos, retain: &ObjectSet) {
        let mut i = 0;
        while i < self.cursors.len() {
            let c = &mut self.cursors[i];
            if c.pos == pos {
                if c.idx > 0 && retain.contains(c.obj) {
                    c.idx -= 1;
                    c.pos = c.list[c.idx];
                    i += 1;
                } else {
                    self.cursors.swap_remove(i);
                }
            } else {
                i += 1;
            }
        }
    }

    /// [`Frontier::advance_at`] without the retention filter, for walks
    /// whose support set only grows (Algorithm 7).
    fn advance_all_at(&mut self, pos: QueuePos) {
        let mut i = 0;
        while i < self.cursors.len() {
            let c = &mut self.cursors[i];
            if c.pos == pos {
                if c.idx > 0 {
                    c.idx -= 1;
                    c.pos = c.list[c.idx];
                    i += 1;
                } else {
                    self.cursors.swap_remove(i);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Drop all cursors (reuse across analyses without reallocating).
    fn clear(&mut self) {
        self.cursors.clear();
    }
}

/// The result of a closure computation for one client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClosureResult {
    /// Positions of actions to send, ascending — candidates plus their
    /// unsent transitive support. `sent` bits have been updated.
    pub send: Vec<QueuePos>,
    /// The residual read-set `S` to satisfy with a blind write
    /// `W(S, ζ_S(S))`.
    pub blind_set: ObjectSet,
    /// Queue entries the pre-index linear scan would have examined (the
    /// paper's closure cost driver). This stays the simulated-cost input so
    /// event timing — and the golden digests — are independent of which
    /// implementation ran.
    pub scanned: usize,
    /// Queue entries the index-driven traversal actually visited — the
    /// real host-side work, strictly ≤ `scanned`.
    pub visited: usize,
}

/// Algorithm 6, generalized to a set of candidate actions (the per-reply
/// case of the Incomplete World Model is a single candidate; the First
/// Bound push cycle seeds many).
///
/// Logically a backwards scan from the newest candidate: an entry is taken
/// if it is a candidate or its write set intersects the accumulated
/// read-support `S`; taken entries not yet sent to `client` are added to
/// the reply (and their read sets to `S`), while entries already sent
/// subtract their write sets from `S` — the client already has those
/// values. Whatever remains in `S` must come from committed state via a
/// blind write.
///
/// This implementation walks conflicts through the inverted write index: a
/// [`Frontier`] seeded from the candidates jumps directly between the
/// entries whose write sets can intersect `S`, visiting O(conflicts)
/// entries instead of the whole queue. Bit-identical to
/// [`closure_for_linear`] — same `send`, `blind_set`, `sent`-bit updates,
/// and `scanned` (the linear-equivalent count) — because every visit
/// re-applies the exact linear predicates and the cursor invariant
/// guarantees every conflicting entry is visited: whenever an object enters
/// `S` a cursor is parked on its largest posting below the current
/// position, and each visit re-parks the drained cursors one posting lower.
pub fn closure_for<A: Action>(
    queue: &mut ActionQueue<A>,
    client: ClientId,
    candidates: &[QueuePos],
) -> ClosureResult {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    let mut send = Vec::with_capacity(candidates.len());
    let mut s = ObjectSet::new();
    let Some(&newest) = candidates.last() else {
        return ClosureResult {
            send,
            blind_set: s,
            scanned: 0,
            visited: 0,
        };
    };
    let ActionQueue {
        entries,
        index,
        next_pos,
    } = queue;
    let first = *next_pos - entries.len() as QueuePos;
    debug_assert!(
        candidates.first().is_some_and(|&p| p >= first) && newest < *next_pos,
        "candidates must reference live queue entries"
    );
    let mut visited = 0usize;
    let mut frontier = Frontier::new(index);
    let mut cands = candidates.iter().rev().copied().peekable();
    // Where the linear scan would have stopped: it breaks only once the
    // support empties with no candidates left; otherwise it walks all the
    // way to the queue head.
    let mut stop = first;
    loop {
        let next_cand = cands.peek().copied();
        let pos = match (next_cand, frontier.peek_pos()) {
            (None, None) => break,
            (Some(c), None) => c,
            (None, Some(f)) => f,
            (Some(c), Some(f)) => c.max(f),
        };
        let is_cand = next_cand == Some(pos);
        if is_cand {
            cands.next();
        }
        if pos < first {
            continue; // already committed (defensive; asserted above)
        }
        visited += 1;
        let e = &mut entries[(pos - first) as usize];
        debug_assert_eq!(e.pos, pos);
        // Whether the linear scan would have *processed* this entry (its
        // early exit is only reachable from processed entries, so the
        // break below must be gated the same way).
        let mut processed = false;
        if !e.dropped {
            // Dropped actions are no-ops: they neither need sending nor
            // supply values. (A dropped candidate is the issuer's problem;
            // the server has already sent a Dropped notice.)
            let conflicts = e.ws().intersects(&s);
            if is_cand || conflicts {
                processed = true;
                if e.sent.contains(client) {
                    if conflicts {
                        // The client already holds this action: its writes
                        // satisfy that part of the support.
                        s.subtract(e.ws());
                    }
                } else {
                    send.push(pos);
                    // Objects newly entering S need a cursor; objects
                    // already in S have a live cursor at or below `pos`.
                    for o in e.rs().iter_not_in(&s) {
                        frontier.seed(o, pos);
                    }
                    s.union_with(e.rs());
                    e.sent.insert(client);
                }
            }
        }
        // Advance the cursors parked here; cursors whose object has since
        // left S are retired.
        frontier.advance_at(pos, &s);
        if processed && s.is_empty() && cands.peek().is_none() {
            stop = pos; // nothing left to resolve — the linear scan breaks
            break; // exactly here, and an empty frontier is equally final
        }
    }
    send.reverse();
    ClosureResult {
        send,
        blind_set: s,
        scanned: ((newest + 1).saturating_sub(stop)) as usize,
        visited,
    }
}

/// The pre-index linear Algorithm 6: a full backwards scan over the queue.
/// Kept as the reference implementation for the differential proptests and
/// the indexed-vs-linear benches; behaviourally identical to
/// [`closure_for`].
pub fn closure_for_linear<A: Action>(
    queue: &mut ActionQueue<A>,
    client: ClientId,
    candidates: &[QueuePos],
) -> ClosureResult {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    let mut send = Vec::with_capacity(candidates.len());
    let mut s = ObjectSet::new();
    let mut scanned = 0usize;
    let mut cand_iter = candidates.iter().rev().peekable();
    let newest = match candidates.last() {
        Some(&p) => p,
        None => {
            return ClosureResult {
                send,
                blind_set: s,
                scanned,
                visited: 0,
            }
        }
    };
    for e in queue.iter_mut_rev() {
        if e.pos > newest {
            continue;
        }
        scanned += 1;
        let is_cand = cand_iter.peek().is_some_and(|&&p| p == e.pos);
        if is_cand {
            cand_iter.next();
        }
        if e.dropped {
            continue;
        }
        let conflicts = e.ws().intersects(&s);
        if !is_cand && !conflicts {
            continue;
        }
        if e.sent.contains(client) {
            if conflicts {
                s.subtract(e.ws());
            }
        } else {
            send.push(e.pos);
            s.union_with(e.rs());
            e.sent.insert(client);
        }
        if s.is_empty() && cand_iter.peek().is_none() {
            break; // nothing left to resolve — sound early exit
        }
    }
    send.reverse();
    ClosureResult {
        send,
        blind_set: s,
        scanned,
        visited: scanned,
    }
}

/// The result of one Algorithm 7 tick.
#[derive(Debug, Clone, Default)]
pub struct DropAnalysis {
    /// Positions dropped this tick (their entries are marked).
    pub dropped: Vec<QueuePos>,
    /// Queue entries the pre-index linear scan would have examined. Feeds
    /// the simulated cost model, so event timing is implementation-
    /// independent (see [`ClosureResult::scanned`]).
    pub scanned: usize,
    /// Queue entries the index-driven traversal actually visited.
    pub visited: usize,
    /// Conflict-chain length of each analyzed action.
    pub chain_lens: Vec<usize>,
}

/// Reusable buffers for the per-tick Algorithm 7 analysis, held in
/// `PipelineState` so the analyze stage allocates nothing in steady state.
#[derive(Default)]
pub struct AnalyzeScratch {
    /// The walk's support set `S`, cleared for each analyzed action.
    support: ObjectSet,
    /// High-water cursor count, pre-sizing the frontier each tick (the
    /// frontier itself borrows the tick's index and cannot persist).
    frontier_cap: usize,
}

impl AnalyzeScratch {
    /// Fresh scratch (buffers grow to steady-state sizes on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Algorithm 7's `onNextTick`: for every action with `pos ≥ from`, walk its
/// transitive conflict chain backwards through valid uncommitted actions;
/// if any chain member lies farther than `threshold` from the action,
/// drop it. Decisions are sequential in position order — "this enables the
/// model to accept a majority of the actions, while dropping only those
/// that invalidate the bound" — and an entry is marked `dropped` as soon as
/// its verdict is decided, so later walks of the same tick skip it.
///
/// The chain walk is index-driven (see [`closure_for`]): each analyzed
/// action seeds a [`Frontier`] from its read set and hops conflict to
/// conflict instead of examining every older entry — and here the support
/// set only ever grows, so every popped cursor *is* a conflict and no
/// predicate recheck is needed. Bit-identical to
/// [`analyze_new_actions_linear`], including the order drops are decided
/// in (descending conflict positions, exactly the linear walk's order).
/// `scratch` carries the support set and the frontier's capacity from one
/// tick to the next.
pub fn analyze_new_actions<A: Action>(
    queue: &mut ActionQueue<A>,
    from: QueuePos,
    threshold: f64,
    scratch: &mut AnalyzeScratch,
) -> DropAnalysis {
    let mut result = DropAnalysis::default();
    let first = queue.first_pos();
    let Some(last) = queue.last_pos() else {
        return result;
    };
    let start = from.max(first);
    let ActionQueue { entries, index, .. } = queue;
    let s = &mut scratch.support;
    let mut frontier = Frontier::with_capacity(index, scratch.frontier_cap);
    for pos in start..=last {
        let e = &entries[(pos - first) as usize];
        if e.dropped {
            continue;
        }
        let center = e.influence.center;
        s.clear();
        s.union_with(e.rs());
        frontier.clear();
        for o in e.rs().iter() {
            frontier.seed(o, pos);
        }
        let mut invalid = false;
        let mut chain = 0usize;
        // The linear walk examines every position down from `pos`: all of
        // them when the action survives, down to the breaking conflict
        // when it drops.
        let mut stop = first;
        while let Some(j) = frontier.peek_pos() {
            result.visited += 1;
            let ej = &entries[(j - first) as usize];
            if !ej.dropped {
                // Every cursor parked here proves WS(a_j) ∩ S ≠ ∅ — S only
                // grows during this walk, so cursors are never stale.
                debug_assert!(ej.ws().intersects(s));
                chain += 1;
                if center.dist(ej.influence.center) > threshold {
                    invalid = true;
                    stop = j;
                    break;
                }
                for o in ej.rs().iter_not_in(s) {
                    frontier.seed(o, j);
                }
                // (S − WS) ∪ RS simplifies to S ∪ RS since RS ⊇ WS.
                s.union_with(ej.rs());
            }
            frontier.advance_all_at(j);
        }
        result.scanned += (pos - stop) as usize;
        result.chain_lens.push(chain);
        if invalid {
            entries[(pos - first) as usize].dropped = true;
            result.dropped.push(pos);
        }
    }
    scratch.frontier_cap = scratch.frontier_cap.max(frontier.high_water());
    result
}

/// The pre-index linear Algorithm 7 tick: per analyzed action, a full
/// backwards scan over every older entry. Kept as the reference
/// implementation for the differential proptests and the benches;
/// behaviourally identical to [`analyze_new_actions`].
pub fn analyze_new_actions_linear<A: Action>(
    queue: &mut ActionQueue<A>,
    from: QueuePos,
    threshold: f64,
) -> DropAnalysis {
    let mut result = DropAnalysis::default();
    let first = queue.first_pos();
    let last = match queue.last_pos() {
        Some(l) => l,
        None => return result,
    };
    let start = from.max(first);
    for pos in start..=last {
        let (mut s, center) = {
            let e = queue.get(pos).expect("position in range");
            if e.dropped {
                continue;
            }
            (e.rs().clone(), e.influence.center)
        };
        let mut invalid = false;
        let mut chain = 0usize;
        let mut j = pos;
        while j > first {
            j -= 1;
            result.scanned += 1;
            let ej = queue.get(j).expect("position in range");
            if ej.dropped {
                continue; // isValid_j is false — skip, as the paper does
            }
            if ej.ws().intersects(&s) {
                chain += 1;
                if center.dist(ej.influence.center) > threshold {
                    invalid = true;
                    break;
                }
                // (S − WS) ∪ RS simplifies to S ∪ RS since RS ⊇ WS.
                s.union_with(ej.rs());
            }
        }
        result.chain_lens.push(chain);
        if invalid {
            queue.get_mut(pos).expect("in range").dropped = true;
            result.dropped.push(pos);
        }
    }
    result.visited = result.scanned;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::action::Outcome;
    use seve_world::geometry::Vec2;
    use seve_world::ids::{ActionId, ObjectId};
    use seve_world::state::WorldState;

    /// A test action with explicit sets and position.
    #[derive(Clone, Debug)]
    struct TestAction {
        id: ActionId,
        rs: ObjectSet,
        ws: ObjectSet,
        center: Vec2,
    }

    fn act(client: u16, seq: u32, reads: &[u32], writes: &[u32], x: f64) -> TestAction {
        let rs: ObjectSet = reads
            .iter()
            .chain(writes.iter())
            .map(|&i| ObjectId(i))
            .collect();
        TestAction {
            id: ActionId::new(ClientId(client), seq),
            rs,
            ws: writes.iter().map(|&i| ObjectId(i)).collect(),
            center: Vec2::new(x, 0.0),
        }
    }

    impl Action for TestAction {
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
        fn evaluate(&self, _e: &(), _s: &WorldState) -> Outcome {
            Outcome::abort()
        }
        fn wire_bytes(&self) -> u32 {
            8
        }
    }

    fn push<A: Action>(q: &mut ActionQueue<A>, a: A) -> QueuePos {
        q.push(a, SimTime::ZERO)
    }

    #[test]
    fn client_set_basics() {
        let mut s = ClientSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ClientId(3)));
        assert!(!s.insert(ClientId(3)));
        assert!(s.insert(ClientId(100)));
        assert!(s.contains(ClientId(3)));
        assert!(s.contains(ClientId(100)));
        assert!(!s.contains(ClientId(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn queue_positions_are_dense_from_one() {
        let mut q = ActionQueue::new();
        assert_eq!(push(&mut q, act(0, 0, &[], &[1], 0.0)), 1);
        assert_eq!(push(&mut q, act(1, 0, &[], &[2], 0.0)), 2);
        assert_eq!(q.first_pos(), 1);
        assert_eq!(q.last_pos(), Some(2));
        assert_eq!(q.get(1).unwrap().pos, 1);
        q.pop_front();
        assert_eq!(q.first_pos(), 2);
        assert!(q.get(1).is_none());
        assert_eq!(q.get(2).unwrap().pos, 2);
    }

    #[test]
    fn closure_single_candidate_no_conflicts() {
        let mut q = ActionQueue::new();
        push(&mut q, act(0, 0, &[], &[1], 0.0));
        let p2 = push(&mut q, act(1, 0, &[], &[2], 0.0));
        let r = closure_for(&mut q, ClientId(1), &[p2]);
        assert_eq!(r.send, vec![p2], "unrelated a1 not included");
        // Blind must cover a2's read support (its own read set).
        assert_eq!(r.blind_set.as_slice(), &[ObjectId(2)]);
        assert!(q.get(p2).unwrap().sent.contains(ClientId(1)));
        assert!(!q.get(1).unwrap().sent.contains(ClientId(1)));
    }

    #[test]
    fn closure_pulls_transitive_support() {
        // a1 writes x; a2 reads x writes y; a3 reads y. Closure of a3 must
        // include a2 and a1.
        let mut q = ActionQueue::new();
        let p1 = push(&mut q, act(0, 0, &[], &[10], 0.0));
        let p2 = push(&mut q, act(1, 0, &[10], &[20], 0.0));
        let p3 = push(&mut q, act(2, 0, &[20], &[30], 0.0));
        let r = closure_for(&mut q, ClientId(2), &[p3]);
        assert_eq!(r.send, vec![p1, p2, p3]);
        // Support resolved transitively; blind covers the outermost reads.
        assert!(r.blind_set.contains(ObjectId(10)));
    }

    #[test]
    fn closure_skips_already_sent_and_subtracts_their_writes() {
        let mut q = ActionQueue::new();
        let p1 = push(&mut q, act(0, 0, &[], &[10], 0.0));
        let p2 = push(&mut q, act(1, 0, &[10], &[20], 0.0));
        // First reply: client 5 receives both.
        let r1 = closure_for(&mut q, ClientId(5), &[p2]);
        assert_eq!(r1.send, vec![p1, p2]);
        // A new action reading 20: support (p2, p1) already sent.
        let p3 = push(&mut q, act(2, 0, &[20], &[30], 0.0));
        let r2 = closure_for(&mut q, ClientId(5), &[p3]);
        assert_eq!(r2.send, vec![p3], "sent support not re-sent");
        // 20 supplied by the already-sent p2 → not in the blind set.
        assert!(!r2.blind_set.contains(ObjectId(20)));
        assert!(r2.blind_set.contains(ObjectId(30)), "own reads still blind");
    }

    #[test]
    fn closure_ignores_dropped_entries() {
        let mut q = ActionQueue::new();
        let p1 = push(&mut q, act(0, 0, &[], &[10], 0.0));
        q.get_mut(p1).unwrap().dropped = true;
        let p2 = push(&mut q, act(1, 0, &[10], &[20], 0.0));
        let r = closure_for(&mut q, ClientId(1), &[p2]);
        assert_eq!(r.send, vec![p2]);
        // The dropped writer supplies nothing: 10 must come from committed
        // state.
        assert!(r.blind_set.contains(ObjectId(10)));
    }

    #[test]
    fn closure_multi_candidate_merges_support() {
        let mut q = ActionQueue::new();
        let p1 = push(&mut q, act(0, 0, &[], &[10], 0.0));
        let p2 = push(&mut q, act(1, 0, &[], &[20], 0.0));
        let p3 = push(&mut q, act(2, 0, &[10], &[30], 0.0));
        let p4 = push(&mut q, act(3, 0, &[20], &[40], 0.0));
        let r = closure_for(&mut q, ClientId(9), &[p3, p4]);
        assert_eq!(r.send, vec![p1, p2, p3, p4]);
    }

    #[test]
    fn closure_with_no_candidates_is_empty() {
        let mut q = ActionQueue::new();
        push(&mut q, act(0, 0, &[], &[1], 0.0));
        let r = closure_for(&mut q, ClientId(0), &[]);
        assert!(r.send.is_empty());
        assert!(r.blind_set.is_empty());
        assert_eq!(r.scanned, 0);
    }

    #[test]
    fn analysis_drops_long_distance_chains() {
        // Two conflicting actions far apart: the later one is dropped.
        let mut q = ActionQueue::new();
        let p1 = push(&mut q, act(0, 0, &[], &[10], 0.0));
        let p2 = push(&mut q, act(1, 0, &[10], &[20], 100.0));
        let r = analyze_new_actions(&mut q, 1, 50.0, &mut AnalyzeScratch::new());
        assert_eq!(r.dropped, vec![p2]);
        assert!(q.get(p2).unwrap().dropped);
        assert!(!q.get(p1).unwrap().dropped);
    }

    #[test]
    fn analysis_keeps_local_chains() {
        let mut q = ActionQueue::new();
        push(&mut q, act(0, 0, &[], &[10], 0.0));
        let p2 = push(&mut q, act(1, 0, &[10], &[20], 30.0));
        let r = analyze_new_actions(&mut q, 1, 50.0, &mut AnalyzeScratch::new());
        assert!(r.dropped.is_empty());
        assert!(!q.get(p2).unwrap().dropped);
        assert_eq!(r.chain_lens, vec![0, 1]);
    }

    #[test]
    fn analysis_chain_breaking_is_sequential() {
        // Dining-philosophers style chain along a line, spacing 40,
        // threshold 50: each link is fine (40 < 50) but the transitive
        // chain accumulates; once a chain member is > 50 away the action
        // drops, and the dropped action breaks the chain for its
        // successors.
        let mut q = ActionQueue::new();
        let mut pos = Vec::new();
        for i in 0..6u32 {
            // Action i writes fork i and fork i+1 (shared with neighbour).
            pos.push(push(
                &mut q,
                act(i as u16, 0, &[], &[i, i + 1], 40.0 * i as f64),
            ));
        }
        let r = analyze_new_actions(&mut q, 1, 50.0, &mut AnalyzeScratch::new());
        // Action 0 trivially valid; action 1 conflicts with 0 (40 away, ok);
        // action 2 conflicts with 1 (40, ok) which chains to 0 (80 > 50) →
        // dropped; action 3 conflicts with 2 (dropped, skipped) → chain
        // restarts from 3... and so on. Every third action drops.
        assert_eq!(r.dropped, vec![pos[2], pos[5]]);
    }

    #[test]
    fn analysis_ignores_positions_before_from() {
        let mut q = ActionQueue::new();
        push(&mut q, act(0, 0, &[], &[10], 0.0));
        let p2 = push(&mut q, act(1, 0, &[10], &[20], 1000.0));
        // Analyze only from p2+1 (nothing new): no drops even though p2's
        // chain is long.
        let r = analyze_new_actions(&mut q, p2 + 1, 50.0, &mut AnalyzeScratch::new());
        assert!(r.dropped.is_empty());
        assert_eq!(r.chain_lens.len(), 0);
    }
}
