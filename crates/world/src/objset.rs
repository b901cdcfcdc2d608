//! Small sorted sets of object identifiers — the read and write sets of
//! actions.
//!
//! The heart of every protocol in the paper is intersecting read sets with
//! write sets: Algorithm 6 scans the action queue testing `WS(a_j) ∩ S ≠ ∅`,
//! and Algorithm 7 does the same while deciding which actions to drop. Read
//! and write sets of real actions are tiny (an avatar plus a handful of
//! neighbours), so a sorted `Vec` beats a hash set: intersection is a linear
//! merge with no hashing and no allocation.
//!
//! Most intersection tests in those scans are *misses* — a queue entry's
//! write set usually shares nothing with the accumulated support `S`. Each
//! set therefore carries a 64-bit occupancy **signature** (every member
//! hashed to one of 64 bits): `sig_a & sig_b == 0` proves the sets disjoint
//! without touching the element vectors, so [`ObjectSet::intersects`] falls
//! through to the merge only when the signatures collide. The signature is
//! an exact function of the membership (recomputed on removal), so derived
//! equality stays consistent. It never travels: the serde form is the ids
//! alone, and decoding rejects ids that are not strictly ascending and
//! recomputes the signature, so no peer can hand the conflict scans a set
//! whose signature or order lies about its members.

use crate::ids::ObjectId;
use std::fmt;

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

/// A sorted, deduplicated set of [`ObjectId`]s.
///
/// ```
/// use seve_world::{ObjectSet, ObjectId};
///
/// let rs: ObjectSet = [ObjectId(3), ObjectId(1)].into_iter().collect();
/// let ws = ObjectSet::singleton(ObjectId(3));
/// assert!(rs.intersects(&ws)); // the WS(a) ∩ S test of Algorithm 6
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ObjectSet {
    ids: Vec<ObjectId>,
    /// Occupancy signature: the OR of [`sig_bit`] over every member.
    /// Maintained exactly (a pure function of `ids`), so the derived
    /// `PartialEq` remains faithful to the membership.
    sig: u64,
}

impl ObjectSet {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        Self {
            ids: Vec::new(),
            sig: 0,
        }
    }

    /// An empty set with preallocated capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ids: Vec::with_capacity(cap),
            sig: 0,
        }
    }

    /// A singleton set.
    #[inline]
    pub fn singleton(id: ObjectId) -> Self {
        Self {
            sig: sig_bit(id),
            ids: vec![id],
        }
    }

    /// Build a set from an arbitrary iterator (sorts and dedups).
    pub fn from_iter_unsorted<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        let mut ids: Vec<ObjectId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self {
            sig: sig_of(&ids),
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
        self.ids.len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Insert an element; returns `true` if it was not already present.
    pub fn insert(&mut self, id: ObjectId) -> bool {
        match self.ids.binary_search(&id) {
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
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                // Other members may share the removed id's bit, so the
                // signature must be rebuilt, not masked.
                self.sig = sig_of(&self.ids);
                true
            }
            Err(_) => false,
        }
    }

    /// Does this set share any element with `other`? (The `WS(a_j) ∩ S ≠ ∅`
    /// test of Algorithms 6 and 7.) Signature fast-reject, then a linear
    /// merge over two sorted vectors only when the signatures collide.
    pub fn intersects(&self, other: &ObjectSet) -> bool {
        if self.sig & other.sig == 0 {
            return false;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
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
    /// case once the accumulated support saturates — costs no allocation.
    pub fn union_with(&mut self, other: &ObjectSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.sig = other.sig;
            self.ids.clear();
            self.ids.extend_from_slice(&other.ids);
            return;
        }
        self.sig |= other.sig;
        let (mut i, mut j) = (0, 0);
        while j < other.ids.len() {
            if i == self.ids.len() || other.ids[j] < self.ids[i] {
                break; // other.ids[j] is missing from self
            }
            if self.ids[i] == other.ids[j] {
                j += 1;
            }
            i += 1;
        }
        if j == other.ids.len() {
            return; // other ⊆ self
        }
        // Merge the divergent tails onto the unchanged prefix.
        let mut merged = Vec::with_capacity(self.ids.len() + other.ids.len() - j);
        merged.extend_from_slice(&self.ids[..i]);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.ids[i..]);
        merged.extend_from_slice(&other.ids[j..]);
        self.ids = merged;
    }

    /// Set difference: `self ← self \ other` (the `S ← S \ WS(a_j)` step of
    /// Algorithm 6). Linear merge, in place.
    pub fn subtract(&mut self, other: &ObjectSet) {
        if self.is_empty() || other.is_empty() || self.sig & other.sig == 0 {
            return;
        }
        let mut j = 0;
        self.ids.retain(|id| {
            while j < other.ids.len() && other.ids[j] < *id {
                j += 1;
            }
            !(j < other.ids.len() && other.ids[j] == *id)
        });
        self.sig = sig_of(&self.ids);
    }

    /// Iterate over the elements in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.ids.iter().copied()
    }

    /// Iterate over the elements of `self` absent from `other`, ascending —
    /// the seeding step of index-driven conflict traversal (objects about
    /// to be *newly added* to the accumulated support `S` each need a
    /// postings cursor). A merge walk over the two sorted vectors; when the
    /// signatures are disjoint no membership probes run at all.
    pub fn iter_not_in<'a>(&'a self, other: &'a ObjectSet) -> impl Iterator<Item = ObjectId> + 'a {
        let disjoint = self.sig & other.sig == 0 || other.is_empty();
        let mut j = 0;
        self.ids.iter().copied().filter(move |&id| {
            if disjoint {
                return true;
            }
            while j < other.ids.len() && other.ids[j] < id {
                j += 1;
            }
            !(j < other.ids.len() && other.ids[j] == id)
        })
    }

    /// The elements as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Remove all elements.
    #[inline]
    pub fn clear(&mut self) {
        self.ids.clear();
        self.sig = 0;
    }

    /// The simulated network's price for the set: a length prefix and 4
    /// bytes per id. (The real codec sends one varint per id.)
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        2 + 4 * self.ids.len() as u32
    }
}

/// The ids only; the signature is derived, not data.
impl serde::Serialize for ObjectSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(&self.ids, serializer)
    }
}

/// Validating: `contains`, `intersects` and the merges all assume sorted,
/// duplicate-free ids, so anything else is refused rather than repaired.
impl<'de> serde::Deserialize<'de> for ObjectSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let ids: Vec<ObjectId> = serde::Deserialize::deserialize(deserializer)?;
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(serde::de::Error::custom(
                "object set ids are not strictly ascending",
            ));
        }
        Ok(Self {
            sig: sig_of(&ids),
            ids,
        })
    }
}

impl FromIterator<ObjectId> for ObjectSet {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        Self::from_iter_unsorted(iter)
    }
}

impl Extend<ObjectId> for ObjectSet {
    fn extend<I: IntoIterator<Item = ObjectId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Debug for ObjectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ids.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ObjectSet {
    type Item = ObjectId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ObjectId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ObjectSet {
        ids.iter().map(|&i| ObjectId(i)).collect()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), &[ObjectId(1), ObjectId(3), ObjectId(5)]);
        assert_eq!(s.len(), 3);
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

    #[test]
    fn wire_bytes_scales_with_len() {
        assert_eq!(ObjectSet::new().wire_bytes(), 2);
        assert_eq!(set(&[1, 2, 3]).wire_bytes(), 2 + 12);
    }

    /// The signature must stay an exact function of the membership across
    /// every mutator, or derived equality (and the fast-reject soundness
    /// argument) breaks.
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
}
