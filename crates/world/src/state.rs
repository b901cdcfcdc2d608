//! The world-state database ζ.
//!
//! A [`WorldState`] is the in-memory object store a net-VE keeps in front of
//! its persistent database (Section II). Each client program maintains two
//! of them — an optimistic version ζ_CO and a stable version ζ_CS — and
//! under the Incomplete World Model the server maintains the authoritative
//! ζ_S (Algorithm 5).
//!
//! Under the Incomplete World Model a client's state holds only the objects
//! the server has sent it, so "object not present" is an ordinary condition,
//! distinct from an empty object.
//!
//! Mutations happen through [`WriteLog`]s (the effects computed by actions)
//! and [`Snapshot`]s (the blind writes `W(S, ζ_S(S))` of Algorithm 6, which
//! unconditionally store authoritative values for an object set).

use crate::ids::{AttrId, ObjectId};
use crate::object::WorldObject;
use crate::objset::ObjectSet;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The set of attribute writes produced by evaluating one action.
///
/// A write log records full attribute values (not deltas), grouped by
/// object. Replaying a write log is idempotent, which is what makes
/// reconciliation (Algorithm 3) and ordered replay safe.
///
/// ```
/// use seve_world::{WorldState, ObjectId};
/// use seve_world::ids::AttrId;
/// use seve_world::state::WriteLog;
///
/// let mut log = WriteLog::new();
/// log.push(ObjectId(7), AttrId(0), true.into());
/// let mut state = WorldState::new();
/// state.apply_writes(&log);
/// state.apply_writes(&log); // idempotent
/// assert_eq!(state.attr(ObjectId(7), AttrId(0)), Some(true.into()));
/// ```
#[derive(Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct WriteLog {
    writes: Vec<(ObjectId, AttrId, Value)>,
}

impl WriteLog {
    /// An empty write log (the effect of an aborted / no-op action).
    #[inline]
    pub const fn new() -> Self {
        Self { writes: Vec::new() }
    }

    /// Record a write of `value` to `(object, attr)`.
    #[inline]
    pub fn push(&mut self, object: ObjectId, attr: AttrId, value: Value) {
        self.writes.push((object, attr, value));
    }

    /// Number of individual attribute writes.
    #[inline]
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Is the log empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Iterate over the recorded writes in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, AttrId, Value)> + '_ {
        self.writes.iter().copied()
    }

    /// The set of objects written.
    pub fn touched_objects(&self) -> ObjectSet {
        self.writes.iter().map(|&(o, _, _)| o).collect()
    }

    /// Insert every written object into `set` (allocation-free dirty-set
    /// accumulation, used by the replay log's checkpoint tracking).
    pub fn add_touched_to(&self, set: &mut ObjectSet) {
        for &(o, _, _) in &self.writes {
            set.insert(o);
        }
    }

    /// Mix the log into a digest. Two logs with the same writes in the same
    /// order digest equal — this is the result value `v` that the client
    /// protocol compares between optimistic and stable evaluations.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        for (o, a, v) in self.iter() {
            h ^= u64::from(o.0).wrapping_mul(0xA076_1D64_78BD_642F);
            h ^= u64::from(a.0).wrapping_mul(0xE703_7ED1_A0B4_28DB);
            h = v.fold_digest(h);
        }
        h
    }
}

impl fmt::Debug for WriteLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut l = f.debug_list();
        for (o, a, v) in self.iter() {
            l.entry(&format_args!("{o:?}.{a:?}={v:?}"));
        }
        l.finish()
    }
}

/// Full-object snapshot: the payload of a blind write `W(S, v)`.
///
/// Algorithm 6 prepends `W(S, ζ_S(S))` to every reply — authoritative
/// committed values for the read-set items the client cannot derive from the
/// actions it holds. Applying a snapshot *replaces* each object wholesale.
#[derive(Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    objects: Vec<(ObjectId, WorldObject)>,
}

impl Snapshot {
    /// An empty snapshot.
    #[inline]
    pub const fn new() -> Self {
        Self {
            objects: Vec::new(),
        }
    }

    /// Add an object to the snapshot.
    #[inline]
    pub fn push(&mut self, id: ObjectId, object: WorldObject) {
        self.objects.push((id, object));
    }

    /// Number of objects captured.
    #[inline]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Is the snapshot empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterate over the captured objects.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &WorldObject)> {
        self.objects.iter().map(|(id, o)| (*id, o))
    }

    /// The set of objects captured.
    pub fn object_set(&self) -> ObjectSet {
        self.objects.iter().map(|&(o, _)| o).collect()
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (id, o) in self.iter() {
            m.entry(&id, o);
        }
        m.finish()
    }
}

/// The world state ζ: a map from object id to object.
///
/// Representation: a dense table `Vec<Option<Arc<WorldObject>>>` indexed
/// by [`ObjectId::index`], plus a count of the occupied slots. Object ids
/// are the dense small integers a world constructor hands out, so a read is
/// one bounds-checked index; iteration walks the slots in ascending id
/// order, which keeps digests and consistency comparisons deterministic.
/// The `Arc` makes objects *shared, immutable until written*: [`Clone`],
/// [`WorldState::copy_objects_from`], [`WorldState::overlay`] and a world's
/// `initial_state()` copy pointers, not attribute tuples, so the N replicas
/// of a run (each holding ζ_CO, ζ_CS and the replay log's base) all point at
/// one set of untouched objects. A *partial* state — a few objects only —
/// is the same type, and its table is as long as its largest id: the
/// replay log keeps blind writes and checkpoint deltas as partial states
/// whose objects the full states share. `clone_from` re-points only the
/// slots that differ (see its doc), which is what bringing ζ_CO back to
/// ζ_CS costs.
///
/// **Copy on first write.** Every mutator goes through [`Arc::make_mut`] or
/// replaces the pointer: the first write to an object that another state
/// still references clones that one object — one allocation, since a
/// [`WorldObject`] holds its attributes inline — and leaves the other
/// state's value as it was; later writes to the now-unshared object are in
/// place. No write through one `WorldState` is ever visible through
/// another. Equality, digests and iteration look through the pointer and
/// ignore empty slots (trailing ones included), so neither sharing nor the
/// table's length is observable apart from memory and time. `Arc` rather
/// than `Rc` because replicas run on their own threads in the `inproc` and
/// `rt` backends.
///
/// A table grows to the largest id written into it, so a state must never
/// be handed an id chosen by an untrusted peer: the serializer refuses
/// messages naming ids outside the world before they reach ζ_S.
///
/// ```
/// use seve_world::{WorldState, ObjectId};
/// use seve_world::ids::AttrId;
///
/// let mut zeta = WorldState::new();
/// zeta.set_attr(ObjectId(1), AttrId(0), 100i64.into());
/// assert_eq!(zeta.attr(ObjectId(1), AttrId(0)), Some(100i64.into()));
///
/// // Two states with the same content share a digest.
/// let copy = zeta.clone();
/// assert_eq!(zeta.digest(), copy.digest());
/// ```
#[derive(Default)]
pub struct WorldState {
    /// Slot `i` holds object `ObjectId(i)`, if materialized.
    slots: Vec<Option<Arc<WorldObject>>>,
    /// Number of occupied slots.
    live: usize,
}

impl PartialEq for WorldState {
    /// Same objects under the same ids; how many empty slots either table
    /// ends in does not matter.
    fn eq(&self, other: &Self) -> bool {
        // With equal counts, agreeing on the common prefix leaves no
        // occupied slot in the longer table's tail.
        self.live == other.live && self.slots.iter().zip(&other.slots).all(|(a, b)| a == b)
    }
}

impl Eq for WorldState {}

impl Clone for WorldState {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            live: self.live,
        }
    }

    /// Make `self` equal to `source` by pointer-diff: one walk over the two
    /// tables that re-points only the slots whose handles differ, whatever
    /// ids either side holds. Objects already shared cost one comparison,
    /// and nothing is allocated unless `source`'s table is the longer. This
    /// is how a replica re-derives ζ_CO from ζ_CS after an out-of-order
    /// insert, when the two differ in a handful of objects.
    fn clone_from(&mut self, source: &Self) {
        self.slots.truncate(source.slots.len());
        let common = self.slots.len();
        for (mine, theirs) in self.slots.iter_mut().zip(&source.slots) {
            let shared = match (&*mine, theirs) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !shared {
                *mine = theirs.clone();
            }
        }
        self.slots.extend_from_slice(&source.slots[common..]);
        self.live = source.live;
    }
}

impl WorldState {
    /// An empty world.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialized objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the world empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Is `id` materialized in this state?
    ///
    /// Under the Incomplete World Model, clients materialize only the
    /// objects the server has sent them.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.get(id).is_some()
    }

    /// The shared handle in `id`'s slot.
    #[inline]
    fn slot(&self, id: ObjectId) -> Option<&Arc<WorldObject>> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Read an object.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<&WorldObject> {
        self.slot(id).map(|o| &**o)
    }

    /// Read one attribute of one object.
    #[inline]
    pub fn attr(&self, id: ObjectId, attr: AttrId) -> Option<Value> {
        self.get(id).and_then(|o| o.get(attr))
    }

    /// `id`'s slot in `slots`, growing the table to reach it. (A function
    /// of the table alone, so callers can still update the count.)
    fn slot_mut(
        slots: &mut Vec<Option<Arc<WorldObject>>>,
        id: ObjectId,
    ) -> &mut Option<Arc<WorldObject>> {
        let i = id.index();
        if i >= slots.len() {
            slots.resize(i + 1, None);
        }
        &mut slots[i]
    }

    /// Store `object` in `id`'s slot.
    fn put_shared(&mut self, id: ObjectId, object: Arc<WorldObject>) {
        if Self::slot_mut(&mut self.slots, id)
            .replace(object)
            .is_none()
        {
            self.live += 1;
        }
    }

    /// The object in `id`'s slot for writing, created empty if absent and
    /// un-shared if another state still points at it.
    fn object_mut(&mut self, id: ObjectId) -> &mut WorldObject {
        let slot = Self::slot_mut(&mut self.slots, id);
        if slot.is_none() {
            self.live += 1;
        }
        Arc::make_mut(slot.get_or_insert_with(Arc::default))
    }

    /// Insert or replace an object wholesale.
    #[inline]
    pub fn put(&mut self, id: ObjectId, object: WorldObject) {
        self.put_shared(id, Arc::new(object));
    }

    /// Remove an object. Returns the object if it was present.
    #[inline]
    pub fn remove(&mut self, id: ObjectId) -> Option<WorldObject> {
        let o = self.slots.get_mut(id.index())?.take()?;
        self.live -= 1;
        Some(Arc::unwrap_or_clone(o))
    }

    /// Write one attribute, creating the object if needed. Un-shares the
    /// object first if another state still points at it.
    pub fn set_attr(&mut self, id: ObjectId, attr: AttrId, value: Value) {
        self.object_mut(id).set(attr, value);
    }

    /// Apply the writes of `log` whose object passes `keep`. Actions write
    /// their attributes object by object, so each run of writes to one
    /// object costs one slot lookup and one un-share.
    fn apply_writes_where(&mut self, log: &WriteLog, keep: impl Fn(ObjectId) -> bool) {
        for run in log.writes.chunk_by(|a, b| a.0 == b.0) {
            let id = run[0].0;
            if keep(id) {
                let object = self.object_mut(id);
                for &(_, attr, value) in run {
                    object.set(attr, value);
                }
            }
        }
    }

    /// Apply every write in a [`WriteLog`], creating objects as needed.
    pub fn apply_writes(&mut self, log: &WriteLog) {
        self.apply_writes_where(log, |_| true);
    }

    /// Apply a write log, but only writes to objects **not** in `skip`.
    ///
    /// This is the guarded propagation of Algorithm 1 step 4 / Algorithm 4
    /// step 4: writes from serialized remote actions update the optimistic
    /// state ζ_CO only for items *not awaiting permanent values* — i.e. not
    /// in `WS(Q)`, the write set of the client's own pending actions.
    pub fn apply_writes_except(&mut self, log: &WriteLog, skip: &ObjectSet) {
        self.apply_writes_where(log, |id| !skip.contains(id));
    }

    /// Apply a blind-write snapshot: replace each captured object wholesale.
    pub fn apply_snapshot(&mut self, snap: &Snapshot) {
        for (id, o) in snap.iter() {
            self.put(id, o.clone());
        }
    }

    /// Apply a blind-write snapshot, skipping objects in `skip` (the ζ_CO
    /// guard, as for [`WorldState::apply_writes_except`]).
    pub fn apply_snapshot_except(&mut self, snap: &Snapshot, skip: &ObjectSet) {
        for (id, o) in snap.iter() {
            if !skip.contains(id) {
                self.put(id, o.clone());
            }
        }
    }

    /// Capture current values of `set` into a [`Snapshot`] — the server-side
    /// construction of `W(S, ζ_S(S))`. Objects in `set` that are not
    /// materialized are silently omitted (they do not exist yet anywhere).
    pub fn snapshot_of(&self, set: &ObjectSet) -> Snapshot {
        let mut snap = Snapshot::new();
        for id in set.iter() {
            if let Some(o) = self.get(id) {
                snap.push(id, o.clone());
            }
        }
        snap
    }

    /// Copy current values of `ids` from `source` into this state — the
    /// state-reset step `ζ_CO(WS(Q)) ← ζ_CS(WS(Q))` of Algorithm 3. Objects
    /// missing from `source` are removed here too, so the two states agree
    /// on `ids` exactly afterwards. Copies pointers: the objects stay shared
    /// until either side writes them.
    pub fn copy_objects_from(
        &mut self,
        source: &WorldState,
        ids: impl IntoIterator<Item = ObjectId>,
    ) {
        for id in ids {
            match source.slot(id) {
                Some(o) => self.put_shared(id, Arc::clone(o)),
                None => {
                    self.remove(id);
                }
            }
        }
    }

    /// Lay every object of the partial state `patch` over this one, sharing
    /// the objects: `apply_snapshot` for values already held as a state (a
    /// blind write or a checkpoint delta in the replay log), at the cost of
    /// a pointer per object.
    pub fn overlay(&mut self, patch: &WorldState) {
        for (i, o) in patch.slots.iter().enumerate() {
            if let Some(o) = o {
                self.put_shared(ObjectId(i as u32), Arc::clone(o));
            }
        }
    }

    /// Iterate over `(id, object)` in ascending id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &WorldObject)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((ObjectId(i as u32), &**o.as_ref()?)))
    }

    /// The set of materialized object ids.
    pub fn object_set(&self) -> ObjectSet {
        self.iter().map(|(id, _)| id).collect()
    }

    /// A 64-bit digest of the entire state. Equal digests ⇔ equal states
    /// (up to hash collision); used by consistency checks and tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, o) in self.iter() {
            h ^= u64::from(id.0).wrapping_mul(0x2545_F491_4F6C_DD1D);
            h = o.fold_digest(h);
        }
        h
    }

    /// Compare two states on the objects *both* materialize, returning the
    /// ids where they disagree. This is the Theorem 1 consistency predicate
    /// for incomplete replicas: a distributed snapshot is consistent when
    /// every pair of states agrees on their common objects.
    pub fn divergence_on_common(&self, other: &WorldState) -> Vec<ObjectId> {
        // Common objects can only sit in the common prefix of the tables.
        self.slots
            .iter()
            .zip(&other.slots)
            .enumerate()
            .filter_map(|(i, pair)| match pair {
                (Some(a), Some(b)) if a != b => Some(ObjectId(i as u32)),
                _ => None,
            })
            .collect()
    }

    /// Do `self` and `other` point at the same allocation for `id`?
    #[cfg(test)]
    fn shares_object_with(&self, other: &WorldState, id: ObjectId) -> bool {
        match (self.slot(id), other.slot(id)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Debug for WorldState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (id, o) in self.iter() {
            m.entry(&id, o);
        }
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POS: AttrId = AttrId(0);
    const HP: AttrId = AttrId(1);

    fn obj(hp: i64) -> WorldObject {
        WorldObject::from_attrs([(HP, Value::I64(hp))])
    }

    #[test]
    fn put_get_contains_remove() {
        let mut w = WorldState::new();
        assert!(!w.contains(ObjectId(1)));
        w.put(ObjectId(1), obj(10));
        assert!(w.contains(ObjectId(1)));
        assert_eq!(w.attr(ObjectId(1), HP), Some(Value::I64(10)));
        assert_eq!(w.attr(ObjectId(1), POS), None);
        assert_eq!(w.remove(ObjectId(1)), Some(obj(10)));
        assert!(w.is_empty());
    }

    #[test]
    fn apply_writes_creates_and_overwrites() {
        let mut w = WorldState::new();
        let mut log = WriteLog::new();
        log.push(ObjectId(1), HP, Value::I64(5));
        log.push(ObjectId(2), HP, Value::I64(7));
        log.push(ObjectId(1), HP, Value::I64(6)); // later write wins
        w.apply_writes(&log);
        assert_eq!(w.attr(ObjectId(1), HP), Some(Value::I64(6)));
        assert_eq!(w.attr(ObjectId(2), HP), Some(Value::I64(7)));
    }

    #[test]
    fn apply_writes_except_skips_pending_objects() {
        let mut w = WorldState::new();
        w.put(ObjectId(1), obj(1));
        w.put(ObjectId(2), obj(2));
        let mut log = WriteLog::new();
        log.push(ObjectId(1), HP, Value::I64(100));
        log.push(ObjectId(2), HP, Value::I64(200));
        let skip = ObjectSet::singleton(ObjectId(1));
        w.apply_writes_except(&log, &skip);
        assert_eq!(w.attr(ObjectId(1), HP), Some(Value::I64(1)), "skipped");
        assert_eq!(w.attr(ObjectId(2), HP), Some(Value::I64(200)), "applied");
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut w = WorldState::new();
        w.put(ObjectId(3), obj(3));
        w.put(ObjectId(5), obj(5));
        let set: ObjectSet = [ObjectId(3), ObjectId(4), ObjectId(5)]
            .into_iter()
            .collect();
        let snap = w.snapshot_of(&set);
        assert_eq!(snap.len(), 2, "missing object 4 omitted");
        let mut w2 = WorldState::new();
        w2.put(ObjectId(3), obj(99)); // stale value gets replaced
        w2.apply_snapshot(&snap);
        assert_eq!(w2.attr(ObjectId(3), HP), Some(Value::I64(3)));
        assert_eq!(w2.attr(ObjectId(5), HP), Some(Value::I64(5)));
    }

    #[test]
    fn copy_objects_from_mirrors_presence() {
        let mut src = WorldState::new();
        src.put(ObjectId(1), obj(11));
        let mut dst = WorldState::new();
        dst.put(ObjectId(1), obj(99));
        dst.put(ObjectId(2), obj(22)); // absent in src → removed from dst
        let set: ObjectSet = [ObjectId(1), ObjectId(2)].into_iter().collect();
        dst.copy_objects_from(&src, &set);
        assert_eq!(dst.attr(ObjectId(1), HP), Some(Value::I64(11)));
        assert!(!dst.contains(ObjectId(2)));
    }

    /// Replicas run on their own threads in the `rt` and `inproc` backends.
    #[test]
    fn world_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorldState>();
    }

    /// Three objects; every aliasing case below writes object 2 only.
    fn three() -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=3 {
            w.put(ObjectId(i), obj(i64::from(i)));
        }
        w
    }

    #[test]
    fn clone_shares_every_object() {
        let a = three();
        let b = a.clone();
        for i in 1..=3 {
            assert!(a.shares_object_with(&b, ObjectId(i)), "object {i}");
        }
    }

    /// For each mutator: clone a state, mutate one side, and the other side
    /// must keep its digest and value; the clone must still share the
    /// untouched objects and have un-shared exactly the written one.
    #[test]
    fn mutating_a_clone_never_shows_through_the_original() {
        let target = ObjectId(2);
        let only_target = ObjectSet::singleton(target);
        let skip_others: ObjectSet = [ObjectId(1), ObjectId(3)].into_iter().collect();
        let mut log = WriteLog::new();
        for i in 1..=3 {
            log.push(ObjectId(i), HP, Value::I64(77));
        }
        let mut target_log = WriteLog::new();
        target_log.push(target, HP, Value::I64(77));
        let mut snap = Snapshot::new();
        for i in 1..=3 {
            snap.push(ObjectId(i), obj(88));
        }
        let mut target_snap = Snapshot::new();
        target_snap.push(target, obj(88));
        let mut donor = WorldState::new();
        donor.put(target, obj(99));

        type Mutator<'a> = &'a dyn Fn(&mut WorldState);
        let mutators: [(&str, Mutator<'_>); 9] = [
            ("set_attr", &|w| w.set_attr(target, HP, Value::I64(77))),
            ("apply_writes", &|w| w.apply_writes(&target_log)),
            ("apply_writes_except", &|w| {
                w.apply_writes_except(&log, &skip_others)
            }),
            ("apply_snapshot", &|w| w.apply_snapshot(&target_snap)),
            ("apply_snapshot_except", &|w| {
                w.apply_snapshot_except(&snap, &skip_others)
            }),
            ("put", &|w| w.put(target, obj(55))),
            ("remove", &|w| drop(w.remove(target))),
            ("copy_objects_from", &|w| {
                w.copy_objects_from(&donor, &only_target)
            }),
            ("overlay", &|w| w.overlay(&donor)),
        ];

        for (name, mutate) in mutators {
            // Mutate the clone; then, separately, mutate the original.
            for mutate_clone in [true, false] {
                let mut a = three();
                let mut b = a.clone();
                let reference = three();
                let (written, kept) = if mutate_clone {
                    (&mut b, &a)
                } else {
                    (&mut a, &b)
                };
                mutate(written);
                assert_eq!(kept.digest(), reference.digest(), "{name}: digest");
                assert_eq!(*kept, reference, "{name}: ==");
                assert_ne!(*written, reference, "{name}: the write took effect");
                for i in [1, 3] {
                    assert!(
                        written.shares_object_with(kept, ObjectId(i)),
                        "{name}: untouched object {i} stays shared"
                    );
                    assert_eq!(written.get(ObjectId(i)), reference.get(ObjectId(i)));
                }
                assert!(
                    !written.shares_object_with(kept, target),
                    "{name}: the written object is un-shared"
                );
            }
        }
    }

    /// The same table for writes that land past the end of the clone's
    /// table (object 9 of a table holding 1..=3): the written side grows,
    /// the kept side keeps its length, content and digest, and the two
    /// still share objects 1..=3. Removing an id past the end, or copying
    /// an id neither side holds, changes nothing.
    #[test]
    fn growing_a_clone_never_shows_through_the_original() {
        let far = ObjectId(9);
        let mut log = WriteLog::new();
        log.push(far, HP, Value::I64(77));
        let mut snap = Snapshot::new();
        snap.push(far, obj(88));
        let mut donor = WorldState::new();
        donor.put(far, obj(99));

        type Mutator<'a> = &'a dyn Fn(&mut WorldState);
        let growing: [(&str, Mutator<'_>); 7] = [
            ("set_attr", &|w| w.set_attr(far, HP, Value::I64(77))),
            ("apply_writes", &|w| w.apply_writes(&log)),
            ("apply_writes_except", &|w| {
                w.apply_writes_except(&log, &ObjectSet::singleton(ObjectId(2)))
            }),
            ("apply_snapshot", &|w| w.apply_snapshot(&snap)),
            ("put", &|w| w.put(far, obj(55))),
            ("copy_objects_from", &|w| w.copy_objects_from(&donor, [far])),
            ("overlay", &|w| w.overlay(&donor)),
        ];
        for (name, mutate) in growing {
            for mutate_clone in [true, false] {
                let mut a = three();
                let mut b = a.clone();
                let (written, kept) = if mutate_clone {
                    (&mut b, &a)
                } else {
                    (&mut a, &b)
                };
                mutate(written);
                assert_eq!(*kept, three(), "{name}: ==");
                assert_eq!(kept.digest(), three().digest(), "{name}: digest");
                assert_eq!(
                    kept.slots.len(),
                    4,
                    "{name}: the kept table keeps its length"
                );
                assert!(written.contains(far) && written.len() == 4, "{name}");
                for i in 1..=3 {
                    assert!(written.shares_object_with(kept, ObjectId(i)), "{name}: {i}");
                }
                // Taking the far object out again leaves a longer table
                // that is equal to the original all the same.
                written.remove(far);
                assert_eq!(
                    *written, *kept,
                    "{name}: trailing empty slots are invisible"
                );
                assert_eq!(written.digest(), kept.digest(), "{name}");
                assert!(written.divergence_on_common(kept).is_empty(), "{name}");
            }
        }

        let absent = ObjectId(20);
        let neither = WorldState::new();
        let untouched: [(&str, Mutator<'_>); 3] = [
            ("remove", &|w| assert!(w.remove(absent).is_none())),
            ("copy_objects_from", &|w| {
                w.copy_objects_from(&neither, [absent])
            }),
            ("overlay", &|w| w.overlay(&neither)),
        ];
        for (name, mutate) in untouched {
            let a = three();
            let mut b = a.clone();
            mutate(&mut b);
            assert_eq!(b.slots.len(), 4, "{name}: no growth for an absent id");
            assert_eq!(b, a, "{name}");
        }
    }

    /// `clone_from` against `clone()` over every relation between the two
    /// id sets: same result, objects the two sides already shared are kept
    /// (not re-pointed), and afterwards the two are independent.
    #[test]
    fn clone_from_equals_clone_and_keeps_shared_pointers() {
        let source = three(); // ids 1, 2, 3
        let with = |ids: &[u32]| {
            let mut w = WorldState::new();
            for &i in ids {
                if (1..=3).contains(&i) && i != 2 {
                    // Share what the source has, except a diverged object 2.
                    w.copy_objects_from(&source, [ObjectId(i)]);
                } else {
                    w.put(ObjectId(i), obj(i64::from(i) * 100));
                }
            }
            w
        };
        let cases: [(&str, &[u32]); 5] = [
            ("equal ids", &[1, 2, 3]),
            ("superset", &[0, 1, 2, 3, 9]),
            ("subset", &[1, 2]),
            ("disjoint", &[7, 8, 9]),
            ("empty", &[]),
        ];
        for (name, ids) in cases {
            let mut target = with(ids);
            let was_shared: Vec<u32> = (1..=3)
                .filter(|&i| target.shares_object_with(&source, ObjectId(i)))
                .collect();
            target.clone_from(&source);
            assert_eq!(target, source.clone(), "{name}: ==");
            assert_eq!(target.digest(), source.digest(), "{name}: digest");
            assert_eq!(target.len(), 3, "{name}: no stray ids");
            for i in 1..=3 {
                assert!(
                    target.shares_object_with(&source, ObjectId(i)),
                    "{name}: object {i} is the source's"
                );
            }
            if name == "equal ids" {
                assert_eq!(was_shared, [1, 3], "the pointer-diff had work to skip");
            }
            // Independent afterwards, both ways.
            let reference = three();
            target.set_attr(ObjectId(2), HP, Value::I64(77));
            assert_eq!(source, reference, "{name}: writing the copy");
            let mut source = source.clone();
            let kept = target.clone();
            source.set_attr(ObjectId(3), HP, Value::I64(78));
            assert_eq!(target, kept, "{name}: writing the source");
            assert!(target.shares_object_with(&source, ObjectId(1)), "{name}");
        }
    }

    #[test]
    fn overlay_shares_the_patch_and_leaves_the_rest() {
        let mut patch = WorldState::new();
        patch.put(ObjectId(2), obj(20));
        patch.put(ObjectId(5), obj(50));
        let base = three();
        let mut w = base.clone();
        w.overlay(&patch);
        assert_eq!(w.attr(ObjectId(2), HP), Some(Value::I64(20)));
        assert_eq!(w.attr(ObjectId(5), HP), Some(Value::I64(50)));
        assert!(w.shares_object_with(&patch, ObjectId(2)));
        assert!(w.shares_object_with(&patch, ObjectId(5)));
        assert!(w.shares_object_with(&base, ObjectId(1)));
        assert!(w.shares_object_with(&base, ObjectId(3)));
        // Writing through the overlaid state leaves the patch alone.
        w.set_attr(ObjectId(5), HP, Value::I64(51));
        assert_eq!(patch.attr(ObjectId(5), HP), Some(Value::I64(50)));
    }

    #[test]
    fn runs_of_writes_to_one_object_apply_in_order() {
        // Interleaved runs: 1, 1 | 2 | 1 — the last write to (1, HP) wins,
        // and a skipped object skips its whole run.
        let mut log = WriteLog::new();
        log.push(ObjectId(1), HP, Value::I64(5));
        log.push(ObjectId(1), POS, Value::I64(6));
        log.push(ObjectId(2), HP, Value::I64(7));
        log.push(ObjectId(1), HP, Value::I64(8));
        let mut w = WorldState::new();
        w.apply_writes(&log);
        assert_eq!(w.attr(ObjectId(1), HP), Some(Value::I64(8)));
        assert_eq!(w.attr(ObjectId(1), POS), Some(Value::I64(6)));
        assert_eq!(w.attr(ObjectId(2), HP), Some(Value::I64(7)));
        let mut guarded = WorldState::new();
        guarded.apply_writes_except(&log, &ObjectSet::singleton(ObjectId(1)));
        assert!(!guarded.contains(ObjectId(1)));
        assert_eq!(guarded.attr(ObjectId(2), HP), Some(Value::I64(7)));
    }

    #[test]
    fn copy_objects_from_shares_the_source_object() {
        let src = three();
        let mut dst = WorldState::new();
        dst.put(ObjectId(2), obj(99));
        dst.copy_objects_from(&src, &ObjectSet::singleton(ObjectId(2)));
        assert!(dst.shares_object_with(&src, ObjectId(2)));
    }

    #[test]
    fn remove_returns_the_value_without_disturbing_sharers() {
        let a = three();
        let mut b = a.clone();
        assert_eq!(b.remove(ObjectId(2)), Some(obj(2)));
        assert_eq!(a.get(ObjectId(2)), Some(&obj(2)));
    }

    #[test]
    fn digest_detects_divergence() {
        let mut a = WorldState::new();
        let mut b = WorldState::new();
        a.put(ObjectId(1), obj(1));
        b.put(ObjectId(1), obj(1));
        assert_eq!(a.digest(), b.digest());
        b.set_attr(ObjectId(1), HP, Value::I64(2));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn divergence_on_common_ignores_unshared_objects() {
        let mut a = WorldState::new();
        let mut b = WorldState::new();
        a.put(ObjectId(1), obj(1));
        a.put(ObjectId(2), obj(2));
        b.put(ObjectId(2), obj(2));
        b.put(ObjectId(3), obj(3));
        assert!(a.divergence_on_common(&b).is_empty(), "agree on shared o2");
        b.set_attr(ObjectId(2), HP, Value::I64(99));
        assert_eq!(a.divergence_on_common(&b), vec![ObjectId(2)]);
    }

    #[test]
    fn writelog_digest_and_touched() {
        let mut l1 = WriteLog::new();
        l1.push(ObjectId(1), HP, Value::I64(5));
        let mut l2 = WriteLog::new();
        l2.push(ObjectId(1), HP, Value::I64(5));
        assert_eq!(l1.fold_digest(0), l2.fold_digest(0));
        l2.push(ObjectId(2), HP, Value::I64(5));
        assert_ne!(l1.fold_digest(0), l2.fold_digest(0));
        assert_eq!(l2.touched_objects().as_slice(), &[ObjectId(1), ObjectId(2)]);
    }
}
