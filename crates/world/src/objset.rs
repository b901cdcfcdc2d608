//! Small sorted sets of object identifiers — the read and write sets of
//! actions.
//!
//! The heart of every protocol in the paper is intersecting read sets with
//! write sets: Algorithm 6 scans the action queue testing `WS(a_j) ∩ S ≠ ∅`,
//! and Algorithm 7 does the same while deciding which actions to drop. Read
//! and write sets of real actions are tiny (an avatar plus a handful of
//! neighbours), so a sorted run beats a hash set: intersection is a linear
//! merge with no hashing and no allocation. Up to [`INLINE`] ids live inside
//! the set itself; only a larger set spills them to a heap vector.
//!
//! Most intersection tests in those scans are *misses* — a queue entry's
//! write set usually shares nothing with the accumulated support `S`. Each
//! set therefore carries a 64-bit occupancy **signature** (every member
//! hashed to one of 64 bits): `sig_a & sig_b == 0` proves the sets disjoint
//! without touching the ids, so [`ObjectSet::intersects`] falls through to
//! the merge only when the signatures collide. The signature is an exact
//! function of the membership (recomputed on removal), so equality stays
//! consistent. It never travels: the serde form is the ids alone, and
//! decoding rejects ids that are not strictly ascending and recomputes the
//! signature, so no peer can hand the conflict scans a set whose signature
//! or order lies about its members.

use crate::ids::ObjectId;
use std::fmt;

/// Ids a set holds without a heap allocation: a combat move or shot (one or
/// two ids), a philosopher's grab (three) and a Manhattan move's write set
/// (one) fit; a dense crowd's read set (fifteen) spills.
pub const INLINE: usize = 4;

/// Elements a decoder reserves ahead of receiving them, whatever length a
/// peer claims: the cap the vendored serde puts on a `Vec`'s pre-allocation.
const PREALLOC_CAP: usize = 4096;

/// The signature bit of one object id: a multiplicative hash spread over
/// 64 bits, so dense id ranges don't collapse onto neighbouring bits.
#[inline]
fn sig_bit(id: ObjectId) -> u64 {
    1u64 << ((u64::from(id.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// The occupancy signature of an arbitrary id slice.
#[inline]
fn sig_of(ids: &[ObjectId]) -> u64 {
    ids.iter().fold(0u64, |s, &id| s | sig_bit(id))
}

/// The id run. The variant is the length up to [`INLINE`], so the inline
/// ids need no length byte and fit beside the niche of the spilled `Vec`:
/// the run is one `Vec` header wide. A spilled run stays spilled when it
/// shrinks, keeping its capacity for the next growth; which form holds the
/// ids is never observable.
enum Ids {
    I0,
    I1([ObjectId; 1]),
    I2([ObjectId; 2]),
    I3([ObjectId; 3]),
    I4([ObjectId; INLINE]),
    /// Any length, usually more than [`INLINE`].
    Spilled(Vec<ObjectId>),
}

impl Ids {
    /// `ids` held inline, or in a vector of exactly their length past
    /// [`INLINE`].
    #[inline]
    fn from_slice(ids: &[ObjectId]) -> Self {
        match *ids {
            [] => Ids::I0,
            [a] => Ids::I1([a]),
            [a, b] => Ids::I2([a, b]),
            [a, b, c] => Ids::I3([a, b, c]),
            [a, b, c, d] => Ids::I4([a, b, c, d]),
            _ => Ids::Spilled(ids.to_vec()),
        }
    }

    /// An empty run that holds `cap` ids before it next allocates.
    #[inline]
    fn with_capacity(cap: usize) -> Self {
        if cap <= INLINE {
            Ids::I0
        } else {
            Ids::Spilled(Vec::with_capacity(cap))
        }
    }

    #[inline]
    fn as_slice(&self) -> &[ObjectId] {
        match self {
            Ids::I0 => &[],
            Ids::I1(s) => s,
            Ids::I2(s) => s,
            Ids::I3(s) => s,
            Ids::I4(s) => s,
            Ids::Spilled(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [ObjectId] {
        match self {
            Ids::I0 => &mut [],
            Ids::I1(s) => s,
            Ids::I2(s) => s,
            Ids::I3(s) => s,
            Ids::I4(s) => s,
            Ids::Spilled(v) => v,
        }
    }

    /// Insert `id` at index `i`. An inline run is rebuilt from a stack
    /// copy (at most [`INLINE`] ids moved), spilling when it is full.
    fn insert(&mut self, i: usize, id: ObjectId) {
        if let Ids::Spilled(v) = self {
            v.insert(i, id);
            return;
        }
        let old = self.as_slice();
        let n = old.len();
        let mut buf = [ObjectId(0); INLINE + 1];
        buf[..i].copy_from_slice(&old[..i]);
        buf[i] = id;
        buf[i + 1..=n].copy_from_slice(&old[i..]);
        *self = Ids::from_slice(&buf[..=n]);
    }

    #[inline]
    fn push(&mut self, id: ObjectId) {
        self.insert(self.as_slice().len(), id);
    }

    fn remove(&mut self, i: usize) {
        let ids = self.as_mut_slice();
        ids.copy_within(i + 1.., i);
        let n = ids.len() - 1;
        self.truncate(n);
    }

    #[inline]
    fn truncate(&mut self, n: usize) {
        match self {
            Ids::Spilled(v) => v.truncate(n),
            _ if n < self.as_slice().len() => *self = Ids::from_slice(&self.as_slice()[..n]),
            _ => {}
        }
    }

    /// Keep the ids `keep` accepts, in order (the compaction of
    /// `Vec::retain`, over either form).
    fn retain(&mut self, mut keep: impl FnMut(ObjectId) -> bool) {
        let ids = self.as_mut_slice();
        let mut kept = 0;
        for i in 0..ids.len() {
            if keep(ids[i]) {
                ids[kept] = ids[i];
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

/// Emit the sorted union of two sorted, duplicate-free runs to `out`, in
/// order: single ids while both runs last, then the rest of either as one
/// slice.
#[inline]
fn merge(a: &[ObjectId], b: &[ObjectId], mut out: impl FnMut(&[ObjectId])) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out(&a[i..=i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out(&b[j..=j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out(&a[i..=i]);
                i += 1;
                j += 1;
            }
        }
    }
    out(&a[i..]);
    out(&b[j..]);
}

/// A sorted, deduplicated set of [`ObjectId`]s.
///
/// Up to [`INLINE`] ids are stored in the set itself, so a singleton or pair
/// read set is one flat 32-byte value: building, cloning and decoding it
/// allocate nothing. A fifth id moves the run to the heap; a set that grew
/// there keeps its vector when it shrinks, and a clone of it is inline
/// again. Which form holds the ids is unobservable: equality, iteration,
/// the signature and the encoded bytes (those of a `Vec<ObjectId>`) depend
/// on the members alone.
///
/// ```
/// use seve_world::{ObjectSet, ObjectId};
///
/// let rs: ObjectSet = [ObjectId(3), ObjectId(1)].into_iter().collect();
/// let ws = ObjectSet::singleton(ObjectId(3));
/// assert!(rs.intersects(&ws)); // the WS(a) ∩ S test of Algorithm 6
/// ```
pub struct ObjectSet {
    ids: Ids,
    /// Occupancy signature: the OR of [`sig_bit`] over every member.
    /// Maintained exactly (a pure function of the ids), so equality may
    /// compare it first.
    sig: u64,
}

impl ObjectSet {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        Self {
            ids: Ids::I0,
            sig: 0,
        }
    }

    /// An empty set that holds `cap` ids before it next allocates.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ids: Ids::with_capacity(cap),
            sig: 0,
        }
    }

    /// A singleton set.
    #[inline]
    pub fn singleton(id: ObjectId) -> Self {
        Self {
            ids: Ids::I1([id]),
            sig: sig_bit(id),
        }
    }

    /// Build a set from an arbitrary iterator (sorts and dedups in place).
    pub fn from_iter_unsorted<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut ids = Ids::with_capacity(iter.size_hint().0);
        for id in iter {
            ids.push(id);
        }
        ids.as_mut_slice().sort_unstable();
        let mut prev = None;
        ids.retain(|id| prev.replace(id) != Some(id));
        Self {
            sig: sig_of(ids.as_slice()),
            ids,
        }
    }

    /// The 64-bit occupancy signature: every member hashed to one bit.
    /// Guarantees `a.signature() & b.signature() == 0 ⇒ a ∩ b = ∅` — the
    /// fast-reject gate [`ObjectSet::intersects`] applies before merging.
    #[inline]
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.as_slice().binary_search(&id).is_ok()
    }

    /// Insert an element; returns `true` if it was not already present.
    pub fn insert(&mut self, id: ObjectId) -> bool {
        match self.as_slice().binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                self.sig |= sig_bit(id);
                true
            }
        }
    }

    /// Remove an element; returns `true` if it was present.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        match self.as_slice().binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                // Other members may share the removed id's bit, so the
                // signature must be rebuilt, not masked.
                self.sig = sig_of(self.as_slice());
                true
            }
            Err(_) => false,
        }
    }

    /// Does this set share any element with `other`? (The `WS(a_j) ∩ S ≠ ∅`
    /// test of Algorithms 6 and 7.) Signature fast-reject, then a linear
    /// merge over the two sorted runs only when the signatures collide.
    pub fn intersects(&self, other: &ObjectSet) -> bool {
        if self.sig & other.sig == 0 {
            return false;
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Set union: `self ← self ∪ other` (the `S ← S ∪ RS(a_j)` step of
    /// Algorithm 6). A dry merge walk first finds the earliest element of
    /// `other` actually missing; a union that adds nothing — the common
    /// case once the accumulated support saturates — costs no allocation,
    /// and neither does one whose result fits inline.
    pub fn union_with(&mut self, other: &ObjectSet) {
        let b = other.as_slice();
        if b.is_empty() {
            return;
        }
        self.sig |= other.sig;
        let a = self.as_slice();
        if a.is_empty() {
            match &mut self.ids {
                Ids::Spilled(v) => v.extend_from_slice(b),
                ids => *ids = Ids::from_slice(b),
            }
            return;
        }
        let (mut i, mut j) = (0, 0);
        while j < b.len() {
            if i == a.len() || b[j] < a[i] {
                break; // b[j] is missing from self
            }
            if a[i] == b[j] {
                j += 1;
            }
            i += 1;
        }
        if j == b.len() {
            return; // other ⊆ self
        }
        // Merge the divergent tails onto the unchanged prefix: on the stack
        // when the result can fit inline, else into a vector of the bound.
        let bound = a.len() + b.len() - j;
        if bound <= INLINE {
            let mut buf = [ObjectId(0); INLINE];
            let mut n = i;
            buf[..i].copy_from_slice(&a[..i]);
            merge(&a[i..], &b[j..], |run| {
                buf[n..n + run.len()].copy_from_slice(run);
                n += run.len();
            });
            self.ids = Ids::from_slice(&buf[..n]);
        } else {
            let mut merged = Vec::with_capacity(bound);
            merged.extend_from_slice(&a[..i]);
            merge(&a[i..], &b[j..], |run| merged.extend_from_slice(run));
            self.ids = Ids::Spilled(merged);
        }
    }

    /// Set difference: `self ← self \ other` (the `S ← S \ WS(a_j)` step of
    /// Algorithm 6). Linear merge, in place.
    pub fn subtract(&mut self, other: &ObjectSet) {
        if self.is_empty() || other.is_empty() || self.sig & other.sig == 0 {
            return;
        }
        let b = other.as_slice();
        let mut j = 0;
        self.ids.retain(|id| {
            while j < b.len() && b[j] < id {
                j += 1;
            }
            !(j < b.len() && b[j] == id)
        });
        self.sig = sig_of(self.as_slice());
    }

    /// Iterate over the elements in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Iterate over the elements of `self` absent from `other`, ascending —
    /// the seeding step of index-driven conflict traversal (objects about
    /// to be *newly added* to the accumulated support `S` each need a
    /// postings cursor). A merge walk over the two sorted runs; when the
    /// signatures are disjoint no membership probes run at all.
    pub fn iter_not_in<'a>(&'a self, other: &'a ObjectSet) -> impl Iterator<Item = ObjectId> + 'a {
        let disjoint = self.sig & other.sig == 0 || other.is_empty();
        let b = other.as_slice();
        let mut j = 0;
        self.iter().filter(move |&id| {
            if disjoint {
                return true;
            }
            while j < b.len() && b[j] < id {
                j += 1;
            }
            !(j < b.len() && b[j] == id)
        })
    }

    /// The elements as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[ObjectId] {
        self.ids.as_slice()
    }

    /// Remove all elements (a spilled set keeps its vector).
    #[inline]
    pub fn clear(&mut self) {
        self.ids.truncate(0);
        self.sig = 0;
    }
}

impl Default for ObjectSet {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

/// Inline whenever the members fit, whichever form the source holds.
impl Clone for ObjectSet {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            ids: Ids::from_slice(self.as_slice()),
            sig: self.sig,
        }
    }
}

/// By membership, never by representation.
impl PartialEq for ObjectSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.sig == other.sig && self.as_slice() == other.as_slice()
    }
}

impl Eq for ObjectSet {}

/// The ids only, as the `Vec<ObjectId>` they form; the signature is
/// derived, not data.
impl serde::Serialize for ObjectSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(self.as_slice(), serializer)
    }
}

/// Validating, and straight into the inline slots: `contains`, `intersects`
/// and the merges all assume sorted, duplicate-free ids, so an id not above
/// its predecessor is refused as it arrives rather than repaired. A run
/// that spills reserves no more than [`PREALLOC_CAP`] ids ahead of the
/// bytes that carry them, whatever length the peer claimed.
impl<'de> serde::Deserialize<'de> for ObjectSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct IdsVisitor;
        impl<'de> serde::de::Visitor<'de> for IdsVisitor {
            type Value = ObjectSet;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a strictly ascending sequence of object ids")
            }
            fn visit_seq<S: serde::de::SeqAccess<'de>>(
                self,
                mut seq: S,
            ) -> Result<ObjectSet, S::Error> {
                let mut prev: Option<ObjectId> = None;
                let mut next = |seq: &mut S| -> Result<Option<ObjectId>, S::Error> {
                    let Some(id) = seq.next_element::<ObjectId>()? else {
                        return Ok(None);
                    };
                    if prev.is_some_and(|p| p >= id) {
                        return Err(serde::de::Error::custom(
                            "object set ids are not strictly ascending",
                        ));
                    }
                    prev = Some(id);
                    Ok(Some(id))
                };
                let mut inline = [ObjectId(0); INLINE];
                let mut n = 0;
                while let Some(id) = next(&mut seq)? {
                    if n == INLINE {
                        let claimed = INLINE + 1 + seq.size_hint().unwrap_or(0);
                        let mut ids = Vec::with_capacity(claimed.min(PREALLOC_CAP));
                        ids.extend_from_slice(&inline);
                        ids.push(id);
                        while let Some(id) = next(&mut seq)? {
                            ids.push(id);
                        }
                        return Ok(ObjectSet {
                            sig: sig_of(&ids),
                            ids: Ids::Spilled(ids),
                        });
                    }
                    inline[n] = id;
                    n += 1;
                }
                Ok(ObjectSet {
                    sig: sig_of(&inline[..n]),
                    ids: Ids::from_slice(&inline[..n]),
                })
            }
        }
        deserializer.deserialize_seq(IdsVisitor)
    }
}

impl FromIterator<ObjectId> for ObjectSet {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        Self::from_iter_unsorted(iter)
    }
}

/// Sorts the incoming ids as a set of their own, then merges it in by
/// [`ObjectSet::union_with`].
impl Extend<ObjectId> for ObjectSet {
    fn extend<I: IntoIterator<Item = ObjectId>>(&mut self, iter: I) {
        self.union_with(&Self::from_iter_unsorted(iter));
    }
}

impl fmt::Debug for ObjectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice().iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ObjectSet {
    type Item = ObjectId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ObjectId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ObjectSet {
        ids.iter().map(|&i| ObjectId(i)).collect()
    }

    fn is_inline(s: &ObjectSet) -> bool {
        !matches!(s.ids, Ids::Spilled(_))
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), &[ObjectId(1), ObjectId(3), ObjectId(5)]);
        assert_eq!(s.len(), 3);
        let big = set(&[9, 2, 7, 2, 9, 1, 4, 4]);
        assert_eq!(big, set(&[1, 2, 4, 7, 9]));
        assert_eq!(big.len(), 5);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ObjectSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ObjectId(2)));
        assert!(s.insert(ObjectId(1)));
        assert!(!s.insert(ObjectId(2)), "duplicate insert is a no-op");
        assert!(s.contains(ObjectId(1)));
        assert!(!s.contains(ObjectId(3)));
        assert!(s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(1)));
        assert_eq!(s.as_slice(), &[ObjectId(2)]);
    }

    #[test]
    fn intersects_cases() {
        assert!(set(&[1, 3, 5]).intersects(&set(&[5, 7])));
        assert!(!set(&[1, 3, 5]).intersects(&set(&[2, 4, 6])));
        assert!(!ObjectSet::new().intersects(&set(&[1])));
        assert!(!set(&[1]).intersects(&ObjectSet::new()));
    }

    #[test]
    fn union_with_merges() {
        let mut s = set(&[1, 3, 5]);
        s.union_with(&set(&[2, 3, 9]));
        assert_eq!(
            s.as_slice(),
            &[
                ObjectId(1),
                ObjectId(2),
                ObjectId(3),
                ObjectId(5),
                ObjectId(9)
            ]
        );
        let mut e = ObjectSet::new();
        e.union_with(&set(&[4]));
        assert_eq!(e.as_slice(), &[ObjectId(4)]);
        let mut t = set(&[4]);
        t.union_with(&ObjectSet::new());
        assert_eq!(t.as_slice(), &[ObjectId(4)]);
    }

    #[test]
    fn subtract_removes_common() {
        let mut s = set(&[1, 2, 3, 4, 5]);
        s.subtract(&set(&[2, 4, 6]));
        assert_eq!(s.as_slice(), &[ObjectId(1), ObjectId(3), ObjectId(5)]);
        let mut t = set(&[1]);
        t.subtract(&set(&[1]));
        assert!(t.is_empty());
    }

    #[test]
    fn iter_not_in_is_set_difference() {
        let a = set(&[1, 2, 3, 5, 9]);
        let b = set(&[2, 4, 5]);
        let diff: Vec<ObjectId> = a.iter_not_in(&b).collect();
        assert_eq!(diff, vec![ObjectId(1), ObjectId(3), ObjectId(9)]);
        // Disjoint-signature fast path yields everything.
        let all: Vec<ObjectId> = a.iter_not_in(&ObjectSet::new()).collect();
        assert_eq!(all, a.as_slice());
        // Full overlap yields nothing.
        assert_eq!(a.iter_not_in(&a).count(), 0);
        // Exhaustive against contains() over a small universe.
        for a_bits in 0u32..64 {
            for b_bits in [0u32, 7, 21, 42, 63] {
                let x: ObjectSet = (0..6)
                    .filter(|i| a_bits & (1 << i) != 0)
                    .map(ObjectId)
                    .collect();
                let y: ObjectSet = (0..6)
                    .filter(|i| b_bits & (1 << i) != 0)
                    .map(ObjectId)
                    .collect();
                let got: Vec<ObjectId> = x.iter_not_in(&y).collect();
                let want: Vec<ObjectId> = x.iter().filter(|&o| !y.contains(o)).collect();
                assert_eq!(got, want);
            }
        }
    }

    /// The signature must stay an exact function of the membership across
    /// every mutator, or equality (and the fast-reject soundness argument)
    /// breaks.
    #[test]
    fn signature_tracks_membership_exactly() {
        let mut s = set(&[1, 5, 9]);
        assert_eq!(s.signature(), sig_of(s.as_slice()));
        s.insert(ObjectId(700));
        assert_eq!(s.signature(), sig_of(s.as_slice()));
        s.remove(ObjectId(5));
        assert_eq!(s.signature(), sig_of(s.as_slice()));
        s.union_with(&set(&[2, 9, 44]));
        assert_eq!(s.signature(), sig_of(s.as_slice()));
        s.subtract(&set(&[1, 2, 3]));
        assert_eq!(s.signature(), sig_of(s.as_slice()));
        s.clear();
        assert_eq!(s.signature(), 0);
    }

    #[test]
    fn signature_disjoint_implies_no_intersection() {
        // Exhaustive over a small id universe: whenever the signatures are
        // disjoint, the sets must be disjoint (the fast-reject is sound).
        for a_bits in 0u32..64 {
            for b_bits in 0u32..64 {
                let a: ObjectSet = (0..6)
                    .filter(|i| a_bits & (1 << i) != 0)
                    .map(ObjectId)
                    .collect();
                let b: ObjectSet = (0..6)
                    .filter(|i| b_bits & (1 << i) != 0)
                    .map(ObjectId)
                    .collect();
                let truly_disjoint = !a.as_slice().iter().any(|id| b.contains(*id));
                if a.signature() & b.signature() == 0 {
                    assert!(truly_disjoint, "sig-disjoint but sets intersect");
                }
                assert_eq!(a.intersects(&b), !truly_disjoint);
            }
        }
    }

    #[test]
    fn signature_equal_sets_have_equal_signatures() {
        let a = set(&[3, 1, 4, 1, 5]);
        let mut b = ObjectSet::new();
        for id in [5u32, 4, 3, 1] {
            b.insert(ObjectId(id));
        }
        assert_eq!(a, b);
        assert_eq!(a.signature(), b.signature());
    }

    /// The inline set must not outgrow what it replaced: a `Vec` header
    /// and the signature.
    #[test]
    fn footprint_is_no_larger_than_a_vec_and_its_signature() {
        let before = std::mem::size_of::<Vec<ObjectId>>() + std::mem::size_of::<u64>();
        assert!(
            std::mem::size_of::<ObjectSet>() <= before,
            "{} > {before}",
            std::mem::size_of::<ObjectSet>()
        );
    }

    /// Every constructor and mutator on both sides of the spill point:
    /// the form follows the size on the way up, a shrunk spilled set stays
    /// spilled but equals its inline twin, and a clone is inline again.
    #[test]
    fn sets_spill_past_the_inline_capacity_and_compare_by_members() {
        for n in 0..=2 * INLINE as u32 {
            let ids: Vec<u32> = (0..n).map(|k| (k * 7) % (2 * INLINE as u32 + 1)).collect();
            let mut grown = ObjectSet::new();
            for &i in &ids {
                grown.insert(ObjectId(i));
            }
            let built = set(&ids);
            assert_eq!(grown, built, "n {n}");
            assert_eq!(is_inline(&grown), grown.len() <= INLINE, "n {n}");
            assert_eq!(is_inline(&built), built.len() <= INLINE, "n {n}");
            assert_eq!(ObjectSet::with_capacity(n as usize).len(), 0);
        }
        let mut shrunk = set(&[1, 2, 3, 4, 5, 6]);
        assert!(!is_inline(&shrunk));
        shrunk.remove(ObjectId(6));
        shrunk.subtract(&set(&[5]));
        assert!(!is_inline(&shrunk), "a shrinking set keeps its vector");
        let inline = set(&[4, 3, 2, 1]);
        assert!(is_inline(&inline));
        assert_eq!(shrunk, inline);
        assert!(is_inline(&shrunk.clone()));
        assert_eq!(shrunk.clone(), inline.clone());
        shrunk.clear();
        assert_eq!(shrunk, ObjectSet::new());
        // A union that overflows the slots spills once, at the merged size.
        let mut u = set(&[1, 3]);
        u.union_with(&set(&[2, 4, 6]));
        assert!(!is_inline(&u));
        assert_eq!(u, set(&[1, 2, 3, 4, 6]));
        let mut v = set(&[1, 3]);
        v.union_with(&set(&[2, 3]));
        assert!(is_inline(&v));
    }
}
