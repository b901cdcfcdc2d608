//! World objects: small attribute tuples.
//!
//! Every participant and every interactive thing in the world is "a
//! high-dimensional tuple" (Section III-D): a fixed, small set of attributes.
//! A [`WorldObject`] stores those attributes as a sorted run of
//! `(AttrId, Value)` pairs — objects have a handful of attributes, so a
//! sorted run out-performs any map and keeps iteration deterministic. Up to
//! [`INLINE`] pairs live inside the object itself; only an object with more
//! spills them to a heap vector.

use crate::ids::AttrId;
use crate::value::Value;
use std::fmt;

/// Attributes an object holds without a heap allocation. Every shipped
/// world gives its objects exactly three.
pub const INLINE: usize = 3;

/// Filler for the unused inline slots; never read.
const EMPTY_SLOT: (AttrId, Value) = (AttrId(0), Value::Bool(false));

/// The sorted attribute run, inline up to [`INLINE`] pairs.
#[derive(Clone)]
enum Attrs {
    /// The first `len` slots, in ascending attribute order.
    Inline {
        len: u8,
        slots: [(AttrId, Value); INLINE],
    },
    /// More than [`INLINE`] pairs, in ascending attribute order.
    Spilled(Vec<(AttrId, Value)>),
}

impl Attrs {
    #[inline]
    fn as_slice(&self) -> &[(AttrId, Value)] {
        match self {
            Attrs::Inline { len, slots } => &slots[..usize::from(*len)],
            Attrs::Spilled(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [(AttrId, Value)] {
        match self {
            Attrs::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Attrs::Spilled(v) => v,
        }
    }

    /// Insert `pair` at index `i` of the run, spilling when the inline
    /// slots are full.
    fn insert(&mut self, i: usize, pair: (AttrId, Value)) {
        match self {
            Attrs::Inline { len, slots } if usize::from(*len) < INLINE => {
                let n = usize::from(*len);
                slots.copy_within(i..n, i + 1);
                slots[i] = pair;
                *len += 1;
            }
            Attrs::Inline { slots, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(slots);
                v.insert(i, pair);
                *self = Attrs::Spilled(v);
            }
            Attrs::Spilled(v) => v.insert(i, pair),
        }
    }
}

/// One object in the world-state database: a sorted attribute tuple.
///
/// Up to [`INLINE`] attributes are stored in the object itself, so an
/// object with three attributes is one flat value: cloning it is a copy of
/// its bytes, and the `Arc` a [`WorldState`](crate::state::WorldState)
/// keeps it behind is its only allocation. A fourth attribute moves the
/// run to the heap. Which of the two forms holds the attributes is
/// unobservable: equality, iteration, digests and the encoded bytes (those
/// of a `Vec<(AttrId, Value)>`) depend on the attributes alone.
#[derive(Clone)]
pub struct WorldObject {
    attrs: Attrs,
}

impl WorldObject {
    /// An object with no attributes.
    #[inline]
    pub const fn new() -> Self {
        Self {
            attrs: Attrs::Inline {
                len: 0,
                slots: [EMPTY_SLOT; INLINE],
            },
        }
    }

    /// Build an object from attribute pairs (sorts; later duplicates win).
    pub fn from_attrs<I: IntoIterator<Item = (AttrId, Value)>>(attrs: I) -> Self {
        let mut o = Self::new();
        for (a, v) in attrs {
            o.set(a, v);
        }
        o
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.as_slice().len()
    }

    /// Does the object have no attributes?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read an attribute.
    #[inline]
    pub fn get(&self, attr: AttrId) -> Option<Value> {
        let attrs = self.attrs.as_slice();
        attrs
            .binary_search_by_key(&attr, |&(a, _)| a)
            .ok()
            .map(|i| attrs[i].1)
    }

    /// Read an attribute that must exist, panicking with a useful message if
    /// it does not. For use in action code where the attribute schema is
    /// fixed by the world definition.
    #[inline]
    pub fn expect(&self, attr: AttrId) -> Value {
        self.get(attr)
            .unwrap_or_else(|| panic!("object missing required attribute {attr:?}"))
    }

    /// Write an attribute, inserting or overwriting.
    pub fn set(&mut self, attr: AttrId, value: Value) {
        match self
            .attrs
            .as_slice()
            .binary_search_by_key(&attr, |&(a, _)| a)
        {
            Ok(i) => self.attrs.as_mut_slice()[i].1 = value,
            Err(i) => self.attrs.insert(i, (attr, value)),
        }
    }

    /// Iterate over `(attr, value)` pairs in ascending attribute order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, Value)> + '_ {
        self.attrs.as_slice().iter().copied()
    }

    /// Mix the object into a digest (order-independent because iteration is
    /// sorted).
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        for (a, v) in self.iter() {
            h ^= u64::from(a.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = v.fold_digest(h);
        }
        h
    }
}

impl Default for WorldObject {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for WorldObject {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.attrs.as_slice() == other.attrs.as_slice()
    }
}

impl Eq for WorldObject {}

/// The bytes of the `Vec<(AttrId, Value)>` the attributes would form.
impl serde::Serialize for WorldObject {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(self.attrs.as_slice(), serializer)
    }
}

/// Validating, and straight into the inline slots: [`WorldObject::get`] and
/// [`WorldObject::set`] binary-search the attributes, so ids that are not
/// strictly ascending are refused as they arrive.
impl<'de> serde::Deserialize<'de> for WorldObject {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct AttrsVisitor;
        impl<'de> serde::de::Visitor<'de> for AttrsVisitor {
            type Value = WorldObject;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a sequence of (attribute, value) pairs")
            }
            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> Result<WorldObject, A::Error> {
                let mut o = WorldObject::new();
                while let Some((attr, value)) = seq.next_element::<(AttrId, Value)>()? {
                    if o.attrs
                        .as_slice()
                        .last()
                        .is_some_and(|&(prev, _)| prev >= attr)
                    {
                        return Err(serde::de::Error::custom(
                            "object attribute ids are not strictly ascending",
                        ));
                    }
                    o.attrs.insert(o.len(), (attr, value));
                }
                Ok(o)
            }
        }
        deserializer.deserialize_seq(AttrsVisitor)
    }
}

impl fmt::Debug for WorldObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (a, v) in self.iter() {
            m.entry(&a, &v);
        }
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);

    #[test]
    fn set_get_overwrite() {
        let mut o = WorldObject::new();
        assert!(o.is_empty());
        o.set(B, Value::I64(2));
        o.set(A, Value::I64(1));
        assert_eq!(o.get(A), Some(Value::I64(1)));
        assert_eq!(o.get(B), Some(Value::I64(2)));
        assert_eq!(o.get(C), None);
        o.set(A, Value::I64(10));
        assert_eq!(o.get(A), Some(Value::I64(10)));
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn from_attrs_later_duplicates_win() {
        let o = WorldObject::from_attrs([(A, Value::I64(1)), (A, Value::I64(2))]);
        assert_eq!(o.get(A), Some(Value::I64(2)));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let o = WorldObject::from_attrs([
            (C, Value::Bool(true)),
            (A, Value::I64(0)),
            (B, Value::F64(1.0)),
        ]);
        let order: Vec<AttrId> = o.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![A, B, C]);
    }

    #[test]
    #[should_panic(expected = "missing required attribute")]
    fn expect_panics_on_missing() {
        WorldObject::new().expect(A);
    }

    #[test]
    fn digest_depends_on_content_not_insertion_order() {
        let o1 = WorldObject::from_attrs([(A, Value::I64(1)), (B, Value::I64(2))]);
        let o2 = WorldObject::from_attrs([(B, Value::I64(2)), (A, Value::I64(1))]);
        assert_eq!(o1.fold_digest(7), o2.fold_digest(7));
        let o3 = WorldObject::from_attrs([(A, Value::I64(1)), (B, Value::I64(3))]);
        assert_ne!(o1.fold_digest(7), o3.fold_digest(7));
    }

    /// The inline object must not outgrow what it replaced: a `Vec` header
    /// plus the three pairs that vector held on the heap.
    #[test]
    fn footprint_is_no_larger_than_a_vec_and_its_three_pairs() {
        let pair = std::mem::size_of::<(AttrId, Value)>();
        let before = std::mem::size_of::<Vec<(AttrId, Value)>>() + INLINE * pair;
        assert!(
            std::mem::size_of::<WorldObject>() <= before,
            "{} > {before}",
            std::mem::size_of::<WorldObject>()
        );
    }

    fn is_inline(o: &WorldObject) -> bool {
        matches!(o.attrs, Attrs::Inline { .. })
    }

    /// Pairs in an order that inserts at the front, the back and the middle.
    fn pairs(n: u16) -> Vec<(AttrId, Value)> {
        (0..n)
            .map(|k| {
                let a = (k * 7) % n.max(1);
                (
                    AttrId(a),
                    Value::Vec2(Vec2::new(f64::from(k), -f64::from(a))),
                )
            })
            .collect()
    }

    /// Every insertion point before and after the spill, against the
    /// sorted-`Vec` tuple the object used to be.
    #[test]
    fn spilling_keeps_the_sorted_tuple_of_a_vec() {
        for n in 0..=9u16 {
            let mut o = WorldObject::new();
            let mut reference: Vec<(AttrId, Value)> = Vec::new();
            for (a, v) in pairs(n) {
                o.set(a, v);
                match reference.binary_search_by_key(&a, |&(x, _)| x) {
                    Ok(i) => reference[i].1 = v,
                    Err(i) => reference.insert(i, (a, v)),
                }
                assert_eq!(o.iter().collect::<Vec<_>>(), reference, "n {n}");
                assert_eq!(is_inline(&o), reference.len() <= INLINE, "n {n}");
            }
            for &(a, v) in &reference {
                assert_eq!(o.get(a), Some(v));
            }
            assert_eq!(o.get(AttrId(n)), None);
            let mut h = 3u64;
            for &(a, v) in &reference {
                h ^= u64::from(a.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h = v.fold_digest(h);
            }
            assert_eq!(o.fold_digest(3), h, "n {n}");
        }
    }

    /// A spilled run holding no more than the inline capacity (not built by
    /// `set`, which spills only past it) equals its inline twin, and a
    /// clone of either form keeps it.
    #[test]
    fn inline_and_spilled_forms_with_one_content_are_equal() {
        for n in 0..=INLINE as u16 {
            let inline = WorldObject::from_attrs(pairs(n));
            assert!(is_inline(&inline));
            let spilled = WorldObject {
                attrs: Attrs::Spilled(inline.iter().collect()),
            };
            assert_eq!(inline, spilled, "n {n}");
            assert_eq!(spilled.clone(), inline.clone());
            assert_eq!(inline.fold_digest(0), spilled.fold_digest(0));
            let mut changed = spilled.clone();
            changed.set(AttrId(40), Value::I64(1));
            assert_ne!(changed, inline);
        }
    }
}
