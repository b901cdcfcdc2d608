//! World objects: small attribute tuples.
//!
//! Every participant and every interactive thing in the world is "a
//! high-dimensional tuple" (Section III-D): a fixed, small set of attributes.
//! A [`WorldObject`] stores those attributes as a sorted vector of
//! `(AttrId, Value)` pairs — objects have a handful of attributes, so a
//! sorted vec out-performs any map and keeps iteration deterministic.

use crate::ids::AttrId;
use crate::value::Value;
use std::fmt;

/// One object in the world-state database: a sorted attribute tuple.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct WorldObject {
    attrs: Vec<(AttrId, Value)>,
}

impl WorldObject {
    /// An object with no attributes.
    #[inline]
    pub const fn new() -> Self {
        Self { attrs: Vec::new() }
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
        self.attrs.len()
    }

    /// Does the object have no attributes?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Read an attribute.
    #[inline]
    pub fn get(&self, attr: AttrId) -> Option<Value> {
        self.attrs
            .binary_search_by_key(&attr, |&(a, _)| a)
            .ok()
            .map(|i| self.attrs[i].1)
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
        match self.attrs.binary_search_by_key(&attr, |&(a, _)| a) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (attr, value)),
        }
    }

    /// Iterate over `(attr, value)` pairs in ascending attribute order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, Value)> + '_ {
        self.attrs.iter().copied()
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

    /// Approximate wire size in bytes: count + per-attr (id + value).
    pub fn wire_bytes(&self) -> u32 {
        1 + self
            .attrs
            .iter()
            .map(|&(_, v)| 2 + v.wire_bytes())
            .sum::<u32>()
    }
}

impl serde::Serialize for WorldObject {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(&self.attrs, serializer)
    }
}

/// Validating: [`WorldObject::get`] and [`WorldObject::set`] binary-search
/// the attributes, so ids that are not strictly ascending are refused.
impl<'de> serde::Deserialize<'de> for WorldObject {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let attrs: Vec<(AttrId, Value)> = serde::Deserialize::deserialize(deserializer)?;
        if !attrs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(serde::de::Error::custom(
                "object attribute ids are not strictly ascending",
            ));
        }
        Ok(Self { attrs })
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

    #[test]
    fn wire_bytes() {
        let o = WorldObject::from_attrs([(A, Value::I64(1)), (B, Value::Bool(true))]);
        // 1 + (2 + 9) + (2 + 2)
        assert_eq!(o.wire_bytes(), 16);
    }
}
