//! The wire codec: a compact, non-self-describing binary serde format.
//!
//! The message schema is fixed by the protocol version, so nothing on the
//! wire names a type or a field. Per data-model type:
//!
//! | type | encoding |
//! |---|---|
//! | `u16`, `u32`, `u64`, `char` | canonical unsigned LEB128 varint |
//! | `i16`, `i32`, `i64` | zigzag, then varint |
//! | sequence / map / string / bytes length | varint (at most `u32::MAX`) |
//! | enum variant index | varint |
//! | `u8`, `i8`, `bool`, `Option` tag | one byte |
//! | `f32`, `f64` | the exact IEEE bits, little-endian, fixed width |
//! | struct, tuple, newtype, unit | the fields in order, no framing |
//!
//! A varint is 7 value bits per byte, low group first, with the high bit
//! set on every byte but the last. The decoder accepts only the shortest
//! form: a trailing zero group ([`WireError::NonCanonical`]), more than
//! ten bytes ([`WireError::VarintTooLong`]), a value beyond the field's
//! type ([`WireError::OutOfRange`]) and input that ends mid-varint
//! ([`WireError::Truncated`]) are typed errors, built without allocating.
//! Every encoding is therefore unique, which is what lets a value's bytes
//! be cached and spliced ([`Raw`]).
//!
//! Everything deriving `serde::{Serialize, Deserialize}` round-trips;
//! `deserialize_any` is unsupported by design.

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::{ser, Serialize};
use std::fmt;

/// Longest varint: ⌈64 / 7⌉ bytes.
const MAX_VARINT_LEN: usize = 10;

/// Encoding / decoding errors.
///
/// Every decoder check (bounds, tags, varint form and range) builds a
/// payload-carrying variant, so failing to decode never allocates; the
/// message is only formatted when the error escapes through `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a value could be decoded.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were actually left.
        had: usize,
    },
    /// Bytes remained after the value was fully decoded.
    Trailing(usize),
    /// A bool byte other than 0 or 1.
    InvalidBool(u8),
    /// An `Option` tag byte other than 0 or 1.
    InvalidOptionTag(u8),
    /// A char code outside the Unicode scalar-value range.
    InvalidChar(u32),
    /// A varint with a redundant trailing zero group (an overlong form).
    NonCanonical,
    /// A varint whose first ten bytes all carry the continuation bit.
    VarintTooLong,
    /// A varint larger than the field it decodes into.
    OutOfRange {
        /// The field's largest value.
        max: u64,
    },
    /// A fixed diagnostic for misuse of the format (unsupported
    /// operations, oversize lengths, framing misuse).
    Unsupported(&'static str),
    /// A serde-originated custom message: UTF-8 failures, unknown enum
    /// variants, and the validation rules of the decoded types (for
    /// example an `ObjectSet` whose ids are not strictly ascending).
    Custom(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, had } => {
                write!(f, "wire: needed {needed} bytes, had {had}")
            }
            WireError::Trailing(n) => write!(f, "wire: {n} trailing bytes after value"),
            WireError::InvalidBool(b) => write!(f, "wire: invalid bool byte {b}"),
            WireError::InvalidOptionTag(b) => write!(f, "wire: invalid option tag {b}"),
            WireError::InvalidChar(code) => write!(f, "wire: invalid char code {code}"),
            WireError::NonCanonical => write!(f, "wire: overlong varint"),
            WireError::VarintTooLong => {
                write!(f, "wire: varint longer than {MAX_VARINT_LEN} bytes")
            }
            WireError::OutOfRange { max } => {
                write!(f, "wire: varint exceeds its field's max {max}")
            }
            WireError::Unsupported(msg) => write!(f, "wire: {msg}"),
            WireError::Custom(msg) => write!(f, "wire: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Custom(msg.to_string())
    }
}

impl de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Custom(msg.to_string())
    }
}

/// Serialize `value` into bytes.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(128);
    to_bytes_into(value, &mut out)?;
    Ok(out)
}

/// Serialize `value` by appending to `out`, reusing its capacity.
///
/// Byte-for-byte identical to [`to_bytes`] (which delegates here); with a
/// recycled buffer from a [`BufferPool`], steady-state encoding performs
/// zero heap allocations.
pub fn to_bytes_into<T: Serialize>(value: &T, out: &mut Vec<u8>) -> Result<(), WireError> {
    value.serialize(&mut Encoder { out, splice: false })
}

/// The number of bytes [`to_bytes`] writes for `value`: the same encoder,
/// counting instead of writing, so it allocates nothing of its own. (A
/// [`Raw`] splice counts its length; a `Shared` payload counted a second
/// time caches its encoding, as a second encode does.)
///
/// This is the only definition of a message's size: simulated links charge
/// it, and the in-process transports report it.
///
/// # Panics
///
/// If `value` has no encoding, which is when [`to_bytes`] returns an
/// error: a sequence or map of unknown length, or one longer than
/// `u32::MAX`.
pub fn encoded_len<T: Serialize>(value: &T) -> usize {
    let mut count = Count(0);
    value
        .serialize(&mut Encoder {
            out: &mut count,
            splice: false,
        })
        .expect("value has a wire encoding");
    count.0
}

/// Deserialize a `T` from `bytes`, requiring full consumption.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, WireError> {
    let mut dec = Decoder { input: bytes };
    let v = T::deserialize(&mut dec)?;
    if !dec.input.is_empty() {
        return Err(WireError::Trailing(dec.input.len()));
    }
    Ok(v)
}

/// The newtype-struct name [`Raw`] serializes under. The encoder treats a
/// newtype of this name as already-encoded bytes and copies them verbatim.
const RAW_TOKEN: &str = "$seve::wire::Raw";

/// Bytes that are already the wire encoding of some value, spliced into the
/// output as they are — serde_json's `RawValue` pattern.
///
/// The contract: `to_bytes(&Raw(&to_bytes(v)?))` equals `to_bytes(v)`, so a
/// value encoded once can stand in for itself inside any number of later
/// messages. Only this codec recognises the token; any other serializer
/// would see a newtype struct around a byte string. `Raw` never decodes: the
/// bytes it splices decode as the value they encode.
pub struct Raw<'a>(pub &'a [u8]);

impl Serialize for Raw<'_> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_newtype_struct(RAW_TOKEN, &RawBytes(self.0))
    }
}

/// The payload of a [`Raw`] newtype: a byte string the encoder, primed by
/// the token, writes without a length prefix.
struct RawBytes<'a>(&'a [u8]);

impl Serialize for RawBytes<'_> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

/// A free list of encode buffers so steady-state egress re-uses frames
/// instead of allocating.
///
/// `take` prefers a recycled buffer (a *hit*) and only allocates on a
/// *miss*; `put` clears the buffer but keeps its capacity. The hit/miss
/// split feeds the `pool_hits` stage counter, which is how the smoke check
/// asserts zero steady-state allocations.
///
/// The free list is bounded: at most [`MAX_POOLED`] buffers are retained,
/// and a buffer grown past [`MAX_RETAINED`] bytes is freed instead of
/// pooled, so a one-off burst of large or numerous frames can't pin that
/// memory for the transport's lifetime.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
    taken: u64,
    returned: u64,
}

/// Most buffers [`BufferPool::put`] keeps on the free list.
const MAX_POOLED: usize = 1024;
/// Largest per-buffer capacity [`BufferPool::put`] retains.
const MAX_RETAINED: usize = 1 << 20;

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty (cleared) buffer, recycled when one is available.
    pub fn take(&mut self) -> Vec<u8> {
        self.taken += 1;
        match self.free.pop() {
            Some(buf) => {
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(128)
            }
        }
    }

    /// Return a buffer to the pool, keeping its capacity for reuse.
    /// Oversized buffers and overflow past the free-list cap are dropped
    /// (but still count as returned — the transport no longer holds them).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        self.returned += 1;
        if self.free.len() >= MAX_POOLED || buf.capacity() > MAX_RETAINED {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Takes that were served from the free list.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Takes that had to allocate a fresh buffer.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Buffers taken and not yet returned. Zero at rest — anything else
    /// means an egress lane is pinning pooled frames (the leak the session
    /// reaper exists to prevent).
    pub fn outstanding(&self) -> u64 {
        self.taken - self.returned
    }
}

/// Zigzag: small magnitudes of either sign become small unsigned values.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Where an [`Encoder`] puts the bytes it produces.
trait Sink {
    fn byte(&mut self, b: u8);
    fn bytes(&mut self, b: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

/// A sink that keeps only the count ([`encoded_len`]).
struct Count(usize);

impl Sink for Count {
    #[inline]
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
}

struct Encoder<'a, S> {
    out: &'a mut S,
    /// Set by a [`RAW_TOKEN`] newtype: the next byte string is spliced
    /// without its length prefix.
    splice: bool,
}

impl<S: Sink> Encoder<'_, S> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.out.bytes(bytes);
    }

    /// One- to three-byte forms inline, like the decoder.
    #[inline]
    fn put_varint(&mut self, v: u64) {
        if v < 0x80 {
            self.out.byte(v as u8);
        } else if v < 0x4000 {
            self.put(&[v as u8 | 0x80, (v >> 7) as u8]);
        } else if v < 0x20_0000 {
            self.put(&[v as u8 | 0x80, (v >> 7) as u8 | 0x80, (v >> 14) as u8]);
        } else {
            self.put_varint_long(v);
        }
    }

    #[inline(never)]
    fn put_varint_long(&mut self, mut v: u64) {
        let mut buf = [0u8; MAX_VARINT_LEN];
        let mut n = 0;
        while v >= 0x80 {
            buf[n] = v as u8 | 0x80;
            v >>= 7;
            n += 1;
        }
        buf[n] = v as u8;
        self.put(&buf[..=n]);
    }

    fn put_len(&mut self, len: usize) -> Result<(), WireError> {
        let len = u32::try_from(len).map_err(|_| WireError::Unsupported("length > u32::MAX"))?;
        self.put_varint(u64::from(len));
        Ok(())
    }
}

impl<S: Sink> ser::Serializer for &mut Encoder<'_, S> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.byte(u8::from(v));
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), WireError> {
        self.out.byte(v as u8);
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), WireError> {
        self.put_varint(zigzag(v.into()));
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), WireError> {
        self.put_varint(zigzag(v.into()));
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), WireError> {
        self.put_varint(zigzag(v));
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), WireError> {
        self.out.byte(v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), WireError> {
        self.put_varint(v.into());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), WireError> {
        self.put_varint(v.into());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), WireError> {
        self.put_varint(v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.put(&v.to_bits().to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.put(&v.to_bits().to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.serialize_bytes(v.as_bytes())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        if !std::mem::take(&mut self.splice) {
            self.put_len(v.len())?;
        }
        self.put(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), WireError> {
        self.out.byte(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<(), WireError> {
        self.out.byte(1);
        v.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _: &'static str) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _: &'static str,
        idx: u32,
        _: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_u32(idx)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        v: &T,
    ) -> Result<(), WireError> {
        if name == RAW_TOKEN {
            self.splice = true;
            let r = v.serialize(&mut *self);
            self.splice = false;
            return r;
        }
        v.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        idx: u32,
        _: &'static str,
        v: &T,
    ) -> Result<(), WireError> {
        self.serialize_u32(idx)?;
        v.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or(WireError::Unsupported("sequences must know their length"))?;
        self.put_len(len)?;
        Ok(self)
    }
    fn serialize_tuple(self, _: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _: &'static str, _: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        idx: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(idx)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or(WireError::Unsupported("maps must know their length"))?;
        self.put_len(len)?;
        Ok(self)
    }
    fn serialize_struct(self, _: &'static str, _: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        idx: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(idx)?;
        Ok(self)
    }
}

macro_rules! encoder_compound {
    ($trait:path, $method:ident $(, $key:ident)?) => {
        impl<S: Sink> $trait for &mut Encoder<'_, S> {
            type Ok = ();
            type Error = WireError;
            $(fn $key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
                key.serialize(&mut **self)
            })?
            fn $method<T: Serialize + ?Sized>(&mut self, v: &T) -> Result<(), WireError> {
                v.serialize(&mut **self)
            }
            fn end(self) -> Result<(), WireError> {
                Ok(())
            }
        }
    };
}

encoder_compound!(ser::SerializeSeq, serialize_element);
encoder_compound!(ser::SerializeTuple, serialize_element);
encoder_compound!(ser::SerializeTupleStruct, serialize_field);
encoder_compound!(ser::SerializeTupleVariant, serialize_field);
encoder_compound!(ser::SerializeMap, serialize_value, serialize_key);

impl<S: Sink> ser::SerializeStruct for &mut Encoder<'_, S> {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _: &'static str,
        v: &T,
    ) -> Result<(), WireError> {
        v.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStructVariant for &mut Encoder<'_, S> {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _: &'static str,
        v: &T,
    ) -> Result<(), WireError> {
        v.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                had: self.input.len(),
            });
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("exact length"))
    }

    /// A varint no larger than `max`. One- to three-byte forms — every
    /// value below 2^21: ids, lengths, variant tags and queue positions —
    /// are decoded inline. `max` is never below 16383, so only the
    /// three-byte form needs a range check.
    #[inline]
    fn varint(&mut self, max: u64) -> Result<u64, WireError> {
        debug_assert!(max >= 0x3fff);
        match *self.input {
            [b0, ref rest @ ..] if b0 < 0x80 => {
                self.input = rest;
                Ok(u64::from(b0))
            }
            // A nonzero final group: the shortest two-byte form.
            [b0, b1, ref rest @ ..] if (1..0x80).contains(&b1) => {
                self.input = rest;
                Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7)
            }
            [b0, b1, b2, ref rest @ ..] if b1 >= 0x80 && (1..0x80).contains(&b2) => {
                let v = u64::from(b0 & 0x7f) | u64::from(b1 & 0x7f) << 7 | u64::from(b2) << 14;
                if v > max {
                    return Err(WireError::OutOfRange { max });
                }
                self.input = rest;
                Ok(v)
            }
            _ => self.varint_long(max),
        }
    }

    /// Four- to ten-byte varints, and every malformed one.
    #[inline(never)]
    fn varint_long(&mut self, max: u64) -> Result<u64, WireError> {
        let mut value = 0u64;
        for (i, &b) in self.input.iter().take(MAX_VARINT_LEN).enumerate() {
            value |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                if b == 0 && i > 0 {
                    return Err(WireError::NonCanonical);
                }
                // The tenth group holds bit 63 only.
                if (i == MAX_VARINT_LEN - 1 && b > 1) || value > max {
                    return Err(WireError::OutOfRange { max });
                }
                self.input = &self.input[i + 1..];
                return Ok(value);
            }
        }
        let had = self.input.len();
        if had >= MAX_VARINT_LEN {
            Err(WireError::VarintTooLong)
        } else {
            Err(WireError::Truncated {
                needed: had + 1,
                had,
            })
        }
    }

    fn signed(&mut self, max_zigzag: u64) -> Result<i64, WireError> {
        self.varint(max_zigzag).map(unzigzag)
    }

    fn take_len(&mut self) -> Result<usize, WireError> {
        Ok(self.varint(u32::MAX.into())? as usize)
    }
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _: V) -> Result<V::Value, WireError> {
        Err(WireError::Unsupported("format is not self-describing"))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i8(self.take(1)?[0] as i8)
    }
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i16(self.signed(u16::MAX.into())? as i16)
    }
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i32(self.signed(u32::MAX.into())? as i32)
    }
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i64(self.signed(u64::MAX)?)
    }
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u8(self.take(1)?[0])
    }
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u16(self.varint(u16::MAX.into())? as u16)
    }
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u32(self.varint(u32::MAX.into())? as u32)
    }
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u64(self.varint(u64::MAX)?)
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_f32(f32::from_bits(u32::from_le_bytes(self.take_array()?)))
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_f64(f64::from_bits(u64::from_le_bytes(self.take_array()?)))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let code = self.varint(u32::MAX.into())? as u32;
        visitor.visit_char(char::from_u32(code).ok_or(WireError::InvalidChar(code))?)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        visitor.visit_str(std::str::from_utf8(bytes).map_err(|e| WireError::Custom(e.to_string()))?)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        visitor.visit_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(WireError::InvalidOptionTag(b)),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        visitor.visit_map(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _: V) -> Result<V::Value, WireError> {
        Err(WireError::Unsupported("identifiers are not encoded"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _: V) -> Result<V::Value, WireError> {
        Err(WireError::Unsupported(
            "cannot skip values in a non-self-describing format",
        ))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;
    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;
    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = WireError;
    type Variant = Self;
    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        let idx = self.de.varint(u32::MAX.into())? as u32;
        let val = seed.deserialize(idx.into_deserializer())?;
        Ok((val, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = WireError;
    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }
    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use seve_world::geometry::Vec2;
    use seve_world::ids::{ActionId, AttrId, ClientId, ObjectId};
    use seve_world::objset::ObjectSet;
    use seve_world::state::{Snapshot, WriteLog};
    use seve_world::value::Value;
    use seve_world::WorldObject;

    fn roundtrip<T: Serialize + DeserializeOwned>(value: &T) -> Result<T, WireError> {
        from_bytes(&to_bytes(value)?)
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Mixed {
        a: u8,
        b: i64,
        c: f64,
        d: bool,
        e: Option<u32>,
        f: Vec<u16>,
        g: String,
        h: (u8, u8),
    }

    fn mixed() -> Mixed {
        Mixed {
            a: 7,
            b: -42,
            c: 1.5,
            d: true,
            e: Some(9),
            f: vec![1, 2, 3],
            g: "héllo".into(),
            h: (4, 5),
        }
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u8, u8),
        Struct { x: f64, y: f64 },
    }

    #[test]
    fn mixed_struct_roundtrip() {
        let v = mixed();
        assert_eq!(roundtrip(&v).unwrap(), v);
        let none = Mixed {
            e: None,
            ..roundtrip(&v).unwrap()
        };
        assert_eq!(roundtrip(&none).unwrap(), none);
        // 1 (a) + 1 (b = -42 zigzags to 83) + 8 (c) + 1 (d) + 2 (e) +
        // 4 (f: len + three 1-byte ids) + 7 (g: len + 6 UTF-8 bytes) + 2 (h).
        assert_eq!(to_bytes(&v).unwrap().len(), 26);
    }

    #[test]
    fn enum_variants_roundtrip() {
        for v in [
            Shape::Unit,
            Shape::Newtype(77),
            Shape::Tuple(1, 2),
            Shape::Struct { x: 0.25, y: -8.0 },
        ] {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
        // Variant indices are one-byte varints.
        assert_eq!(to_bytes(&Shape::Unit).unwrap(), [0]);
        assert_eq!(to_bytes(&Shape::Newtype(300)).unwrap(), [1, 0xac, 0x02]);
    }

    #[test]
    fn world_types_roundtrip() {
        let id = ActionId::new(ClientId(3), 99);
        assert_eq!(roundtrip(&id).unwrap(), id);
        let set: ObjectSet = [ObjectId(5), ObjectId(1)].into_iter().collect();
        assert_eq!(roundtrip(&set).unwrap(), set);
        // Only the ids travel: a length and two one-byte ids.
        assert_eq!(to_bytes(&set).unwrap(), [2, 1, 5]);
        let mut log = WriteLog::new();
        log.push(ObjectId(2), AttrId(0), Value::Vec2(Vec2::new(1.0, -2.0)));
        log.push(ObjectId(2), AttrId(1), Value::Bool(true));
        assert_eq!(roundtrip(&log).unwrap(), log);
        let mut snap = Snapshot::new();
        snap.push(
            ObjectId(9),
            WorldObject::from_attrs([(AttrId(0), Value::I64(-5))]),
        );
        assert_eq!(roundtrip(&snap).unwrap(), snap);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        // 12345678 needs four varint bytes; cut after two.
        let bytes = to_bytes(&12345678u64).unwrap();
        assert_eq!(bytes.len(), 4);
        let err = from_bytes::<u64>(&bytes[..2]).unwrap_err();
        assert_eq!(err, WireError::Truncated { needed: 3, had: 2 });
        assert_eq!(err.to_string(), "wire: needed 3 bytes, had 2");
        // A fixed-width float cut short.
        let bytes = to_bytes(&1.5f64).unwrap();
        let err = from_bytes::<f64>(&bytes[..4]).unwrap_err();
        assert_eq!(err, WireError::Truncated { needed: 8, had: 4 });
        assert_eq!(
            from_bytes::<u8>(&[]).unwrap_err(),
            WireError::Truncated { needed: 1, had: 0 }
        );
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        assert_eq!(
            from_bytes::<u32>(&[0x80, 0x00]),
            Err(WireError::NonCanonical)
        );
        assert_eq!(
            from_bytes::<u64>(&[0xff, 0x80, 0x00]),
            Err(WireError::NonCanonical)
        );
        let mut eleven = [0xffu8; 11];
        eleven[10] = 0x01;
        assert_eq!(from_bytes::<u64>(&eleven), Err(WireError::VarintTooLong));
        // Ten bytes whose last group overflows 64 bits.
        let mut ten = [0xffu8; 10];
        ten[9] = 0x02;
        assert_eq!(
            from_bytes::<u64>(&ten),
            Err(WireError::OutOfRange { max: u64::MAX })
        );
        let big = to_bytes(&70_000u32).unwrap();
        assert_eq!(
            from_bytes::<u16>(&big),
            Err(WireError::OutOfRange { max: 65535 })
        );
        assert_eq!(
            from_bytes::<u32>(&[0x80]),
            Err(WireError::Truncated { needed: 2, had: 1 })
        );
    }

    #[test]
    fn pooled_encoding_matches_to_bytes() {
        let v = mixed();
        let oracle = to_bytes(&v).unwrap();
        let mut pool = BufferPool::new();
        let mut buf = pool.take();
        to_bytes_into(&v, &mut buf).unwrap();
        assert_eq!(buf, oracle);
        pool.put(buf);
        // A recycled buffer must start empty and produce identical bytes.
        let mut buf = pool.take();
        assert!(buf.is_empty());
        to_bytes_into(&v, &mut buf).unwrap();
        assert_eq!(buf, oracle);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn raw_splices_encoded_bytes_verbatim() {
        let v = mixed();
        let bytes = to_bytes(&v).unwrap();
        assert_eq!(to_bytes(&Raw(&bytes)).unwrap(), bytes);
        // Inside a larger value, and followed by a real byte string that
        // must keep its length prefix.
        let inner = (3u8, Raw(&bytes), "x");
        let plain = (3u8, &v, "x");
        assert_eq!(to_bytes(&inner).unwrap(), to_bytes(&plain).unwrap());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn invalid_bool_and_option_tags_error() {
        assert_eq!(from_bytes::<bool>(&[2]), Err(WireError::InvalidBool(2)));
        assert_eq!(
            from_bytes::<Option<u8>>(&[7, 0]),
            Err(WireError::InvalidOptionTag(7))
        );
        // A surrogate code point is a well-formed varint but no char.
        let surrogate = to_bytes(&0xD800u32).unwrap();
        assert_eq!(
            from_bytes::<char>(&surrogate),
            Err(WireError::InvalidChar(0xD800))
        );
    }

    #[test]
    fn float_bits_are_exact() {
        let v = f64::from_bits(0x7FF0_0000_0000_0001); // a NaN payload
        let back: f64 = roundtrip(&v).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }
}
