//! Attribute values.
//!
//! The world-state database maps `(ObjectId, AttrId)` to a [`Value`]. The
//! value vocabulary is deliberately small: virtual-world attributes are
//! scalars and low-dimensional vectors ("a high-dimensional tuple" per
//! participant, Section III-D).

use crate::geometry::Vec2;
use std::fmt;

/// A single attribute value.
///
/// `Value` implements `Eq` even though it can carry `f64`s: all arithmetic
/// in this system is deterministic (no platform-dependent math in action
/// code), so bitwise comparison of floats is exactly what replica-consistency
/// checks need. NaN never appears in a well-formed world; constructors
/// debug-assert this.
#[derive(Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Value {
    /// A 64-bit float (health, heading angle, ...).
    F64(f64),
    /// A 64-bit signed integer (counters, owner ids, hit points, ...).
    I64(i64),
    /// A boolean flag (alive, fork-held, ...).
    Bool(bool),
    /// A 2-D vector (position, velocity).
    Vec2(Vec2),
}

// Bitwise float equality is intentional: replicas either computed the exact
// same bits or they diverged. See the type-level docs.
impl Eq for Value {}

impl Value {
    /// Read this value as an `f64`, if it is one.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Read this value as an `i64`, if it is one.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Read this value as a `bool`, if it is one.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Read this value as a [`Vec2`], if it is one.
    #[inline]
    pub fn as_vec2(self) -> Option<Vec2> {
        match self {
            Value::Vec2(v) => Some(v),
            _ => None,
        }
    }

    /// Mix this value into a 64-bit FNV-1a style digest.
    ///
    /// Digests let replicas compare states and results cheaply; see
    /// [`crate::state::WorldState::digest`].
    #[inline]
    pub fn fold_digest(self, h: u64) -> u64 {
        fn mix(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        match self {
            Value::F64(v) => mix(h ^ 0x11, &v.to_bits().to_le_bytes()),
            Value::I64(v) => mix(h ^ 0x22, &v.to_le_bytes()),
            Value::Bool(v) => mix(h ^ 0x33, &[u8::from(v)]),
            Value::Vec2(v) => {
                let h = mix(h ^ 0x44, &v.x.to_bits().to_le_bytes());
                mix(h, &v.y.to_bits().to_le_bytes())
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}i"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Vec2(v) => write!(f, "({}, {})", v.x, v.y),
        }
    }
}

impl From<f64> for Value {
    #[inline]
    fn from(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "NaN must never enter the world state");
        Value::F64(v)
    }
}

impl From<i64> for Value {
    #[inline]
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    #[inline]
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec2> for Value {
    #[inline]
    fn from(v: Vec2) -> Self {
        debug_assert!(
            !v.x.is_nan() && !v.y.is_nan(),
            "NaN must never enter the world state"
        );
        Value::Vec2(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::F64(1.5).as_i64(), None);
        assert_eq!(Value::I64(-3).as_i64(), Some(-3));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        let v = Vec2::new(1.0, 2.0);
        assert_eq!(Value::Vec2(v).as_vec2(), Some(v));
        assert_eq!(Value::Vec2(v).as_bool(), None);
    }

    #[test]
    fn wire_sizes() {
        // A variant tag, then the payload: floats at their exact width, an
        // `I64` as a zigzag varint.
        let len = |v: Value| seve_net::wire::encoded_len(&v);
        assert_eq!(len(Value::F64(0.0)), 9);
        assert_eq!(len(Value::I64(0)), 2);
        assert_eq!(len(Value::I64(-300)), 3);
        assert_eq!(len(Value::Bool(false)), 2);
        assert_eq!(len(Value::Vec2(Vec2::ZERO)), 17);
    }

    #[test]
    fn digest_distinguishes_type_and_value() {
        let h0 = 0xcbf2_9ce4_8422_2325;
        // Same bit pattern, different type tags must digest differently.
        assert_ne!(
            Value::F64(0.0).fold_digest(h0),
            Value::I64(0).fold_digest(h0)
        );
        assert_ne!(
            Value::F64(1.0).fold_digest(h0),
            Value::F64(2.0).fold_digest(h0)
        );
        // Deterministic.
        assert_eq!(
            Value::Vec2(Vec2::new(3.0, 4.0)).fold_digest(h0),
            Value::Vec2(Vec2::new(3.0, 4.0)).fold_digest(h0)
        );
    }

    #[test]
    fn equality_is_bitwise_for_floats() {
        assert_eq!(Value::F64(0.5), Value::F64(0.5));
        assert_ne!(Value::F64(0.5), Value::F64(0.5000001));
        assert_eq!(Value::F64(0.0), Value::F64(-0.0)); // PartialEq on f64: 0.0 == -0.0
    }
}
