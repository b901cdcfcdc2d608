//! The client's pending queue Q.
//!
//! Algorithm 1/4, step 1: "The client maintains a queue
//! Q = [⟨a₁,v₁⟩, …, ⟨aₖ,vₖ⟩] where each aᵢ is a locally generated action
//! that has not yet been received back from the server, and vᵢ is the
//! result of applying aᵢ to ζ_CO."
//!
//! Besides the queue itself, the protocol constantly needs `WS(Q)` — the
//! union of the write sets of pending actions — to guard which incoming
//! writes may touch ζ_CO ("items ... not awaiting permanent values from the
//! server"). [`PendingQueue`] maintains that union incrementally as a
//! multiset, so membership tests are O(log n) and never require a rescan.

use seve_net::time::SimTime;
use seve_world::action::{Action, Outcome};
use seve_world::ids::ObjectId;
use seve_world::objset::ObjectSet;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One entry ⟨aᵢ, vᵢ⟩ of the queue.
#[derive(Clone, Debug)]
pub struct PendingEntry<A> {
    /// The locally generated action.
    pub action: A,
    /// Its optimistic outcome vᵢ.
    pub optimistic: Outcome,
    /// When it was submitted: the start of its response time, or of its
    /// drop notice's delay.
    pub submitted: SimTime,
}

/// The queue Q with an incrementally maintained `WS(Q)` multiset.
#[derive(Clone, Debug)]
pub struct PendingQueue<A> {
    entries: VecDeque<PendingEntry<A>>,
    ws_counts: BTreeMap<ObjectId, u32>,
    /// `ws_counts.keys()` as an [`ObjectSet`], updated on every 0↔1 count
    /// transition so [`PendingQueue::ws_set`] needs only a shared borrow.
    ws_cache: ObjectSet,
}

impl<A: Action> Default for PendingQueue<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Action> PendingQueue<A> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            ws_counts: BTreeMap::new(),
            ws_cache: ObjectSet::new(),
        }
    }

    /// Number of pending actions.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append ⟨a, v⟩, submitted at `submitted` (Algorithm 1 step 2).
    pub fn push(&mut self, action: A, optimistic: Outcome, submitted: SimTime) {
        for o in action.write_set().iter() {
            let c = self.ws_counts.entry(o).or_insert(0);
            *c += 1;
            if *c == 1 {
                self.ws_cache.insert(o);
            }
        }
        self.entries.push_back(PendingEntry {
            action,
            optimistic,
            submitted,
        });
    }

    /// The head entry ⟨a₁, v₁⟩, if any.
    pub fn head(&self) -> Option<&PendingEntry<A>> {
        self.entries.front()
    }

    /// Remove and return the head entry (Algorithm 1 step 5).
    pub fn pop_head(&mut self) -> Option<PendingEntry<A>> {
        let e = self.entries.pop_front()?;
        Self::ws_release(&mut self.ws_counts, &mut self.ws_cache, &e.action);
        Some(e)
    }

    /// Decrement the multiset for one removed action, dropping objects
    /// whose count reaches zero from the cached set.
    fn ws_release(counts: &mut BTreeMap<ObjectId, u32>, cache: &mut ObjectSet, action: &A) {
        for o in action.write_set().iter() {
            match counts.get_mut(&o) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    counts.remove(&o);
                    cache.remove(o);
                }
                None => debug_assert!(false, "WS multiset out of sync"),
            }
        }
    }

    /// Remove the entry for a specific action (used for drop notices, which
    /// may concern any pending action). Returns the entry if present.
    pub fn remove_by_id(&mut self, id: seve_world::ids::ActionId) -> Option<PendingEntry<A>> {
        let idx = self.entries.iter().position(|e| e.action.id() == id)?;
        let e = self.entries.remove(idx)?;
        Self::ws_release(&mut self.ws_counts, &mut self.ws_cache, &e.action);
        Some(e)
    }

    /// Is `obj` in `WS(Q)`?
    #[inline]
    pub fn ws_contains(&self, obj: ObjectId) -> bool {
        self.ws_counts.contains_key(&obj)
    }

    /// `WS(Q)` as a set (maintained incrementally; no rebuild, no `&mut`).
    #[inline]
    pub fn ws_set(&self) -> &ObjectSet {
        debug_assert_eq!(self.ws_cache.len(), self.ws_counts.len());
        &self.ws_cache
    }

    /// Iterate over entries oldest-first (the replay order of Algorithm 3).
    pub fn iter(&self) -> impl Iterator<Item = &PendingEntry<A>> {
        self.entries.iter()
    }

    /// Replace every stored optimistic outcome, oldest-first, via `f` —
    /// the re-application loop of Algorithm 3. The write-set multiset is
    /// unchanged (actions keep their declared write sets).
    pub fn reapply(&mut self, mut f: impl FnMut(&A) -> Outcome) {
        for e in self.entries.iter_mut() {
            e.optimistic = f(&e.action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::action::Influence;
    use seve_world::geometry::Vec2;
    use seve_world::ids::{ActionId, ClientId};
    use seve_world::state::{WorldState, WriteLog};

    #[derive(Clone, Debug, serde::Serialize)]
    struct FakeAction {
        id: ActionId,
        ws: ObjectSet,
    }

    impl FakeAction {
        fn new(seq: u32, ws: &[u32]) -> Self {
            Self {
                id: ActionId::new(ClientId(0), seq),
                ws: ws.iter().map(|&i| ObjectId(i)).collect(),
            }
        }
    }

    impl Action for FakeAction {
        type Env = ();
        fn id(&self) -> ActionId {
            self.id
        }
        fn read_set(&self) -> &ObjectSet {
            &self.ws
        }
        fn write_set(&self) -> &ObjectSet {
            &self.ws
        }
        fn influence(&self) -> Influence {
            Influence::sphere(Vec2::ZERO, 0.0)
        }
        fn evaluate(&self, _env: &(), _s: &WorldState) -> Outcome {
            Outcome::ok(WriteLog::new())
        }
    }

    #[test]
    fn push_pop_fifo() {
        let mut q = PendingQueue::new();
        q.push(FakeAction::new(0, &[1]), Outcome::abort(), SimTime::ZERO);
        q.push(FakeAction::new(1, &[2]), Outcome::abort(), SimTime::ZERO);
        assert_eq!(q.len(), 2);
        assert_eq!(q.head().unwrap().action.id.seq, 0);
        assert_eq!(q.pop_head().unwrap().action.id.seq, 0);
        assert_eq!(q.pop_head().unwrap().action.id.seq, 1);
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn ws_multiset_tracks_overlapping_write_sets() {
        let mut q = PendingQueue::new();
        q.push(FakeAction::new(0, &[1, 2]), Outcome::abort(), SimTime::ZERO);
        q.push(FakeAction::new(1, &[2, 3]), Outcome::abort(), SimTime::ZERO);
        assert!(q.ws_contains(ObjectId(1)));
        assert!(q.ws_contains(ObjectId(2)));
        assert!(q.ws_contains(ObjectId(3)));
        q.pop_head();
        assert!(!q.ws_contains(ObjectId(1)), "only a1 wrote o1");
        assert!(q.ws_contains(ObjectId(2)), "a2 still writes o2");
        q.pop_head();
        assert!(!q.ws_contains(ObjectId(2)));
        assert!(q.ws_set().is_empty());
    }

    #[test]
    fn ws_set_cache_refreshes() {
        let mut q = PendingQueue::new();
        q.push(FakeAction::new(0, &[5]), Outcome::abort(), SimTime::ZERO);
        assert_eq!(q.ws_set().as_slice(), &[ObjectId(5)]);
        q.push(FakeAction::new(1, &[7]), Outcome::abort(), SimTime::ZERO);
        assert_eq!(q.ws_set().as_slice(), &[ObjectId(5), ObjectId(7)]);
    }

    #[test]
    fn reapply_rewrites_outcomes_in_order() {
        let mut q = PendingQueue::new();
        q.push(FakeAction::new(0, &[1]), Outcome::abort(), SimTime::ZERO);
        q.push(FakeAction::new(1, &[2]), Outcome::abort(), SimTime::ZERO);
        let mut seen = Vec::new();
        q.reapply(|a| {
            seen.push(a.id.seq);
            Outcome::ok(WriteLog::new())
        });
        assert_eq!(seen, vec![0, 1], "oldest first");
        assert!(q.iter().all(|e| !e.optimistic.aborted));
    }
}
