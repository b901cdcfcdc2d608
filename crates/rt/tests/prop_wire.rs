//! Property-based tests for the binary wire format: round trips over
//! arbitrary protocol payloads, the varint rules at every length, total
//! safety on damaged input, the identity of spliced encodings, and
//! `encoded_len` as the length of what `to_bytes` writes.

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use seve_baselines::broadcast::{BcastDown, BcastUp};
use seve_baselines::central::{CentralDown, CentralUp};
use seve_baselines::locking::{LockDown, LockUp};
use seve_baselines::timestamp::{TsDown, TsUp};
use seve_core::msg::{Item, Payload, Shared, ToClient, ToServer};
use seve_driver::session::{SessionDown, SessionUp};
use seve_rt::wire::{encoded_len, from_bytes, to_bytes, to_bytes_into, BufferPool, WireError};
use seve_world::geometry::Vec2;
use seve_world::ids::{ActionId, AttrId, ClientId, ObjectId};
use seve_world::objset::ObjectSet;
use seve_world::state::{Snapshot, WriteLog};
use seve_world::value::Value;
use seve_world::WorldObject;

#[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
enum Nested {
    Leaf(u8),
    Pair(i64, bool),
    Labeled { tag: String, inner: Vec<Nested> },
    Nothing,
}

fn nested() -> impl Strategy<Value = Nested> {
    let leaf = prop_oneof![
        any::<u8>().prop_map(Nested::Leaf),
        (any::<i64>(), any::<bool>()).prop_map(|(a, b)| Nested::Pair(a, b)),
        Just(Nested::Nothing),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (".{0,12}", prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, inner)| Nested::Labeled { tag, inner })
    })
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e9f64..1e9).prop_map(Value::F64),
        any::<i64>().prop_map(Value::I64),
        any::<bool>().prop_map(Value::Bool),
        ((-1e6f64..1e6), (-1e6f64..1e6)).prop_map(|(x, y)| Value::Vec2(Vec2::new(x, y))),
    ]
}

fn write_log() -> impl Strategy<Value = WriteLog> {
    prop::collection::vec((0u32..100, 0u16..8, value()), 0..16).prop_map(|writes| {
        let mut log = WriteLog::new();
        for (o, a, v) in writes {
            log.push(ObjectId(o), AttrId(a), v);
        }
        log
    })
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    prop::collection::vec(
        (0u32..50, prop::collection::vec((0u16..6, value()), 0..4)),
        0..6,
    )
    .prop_map(|objs| {
        let mut snap = Snapshot::new();
        for (id, attrs) in objs {
            snap.push(
                ObjectId(id),
                WorldObject::from_attrs(attrs.into_iter().map(|(a, v)| (AttrId(a), v))),
            );
        }
        snap
    })
}

/// Arbitrary protocol messages downstream (server → client), with the
/// synthetic recursive `Nested` standing in for the action type.
fn to_client() -> impl Strategy<Value = ToClient<Nested>> {
    let item = prop_oneof![
        (1u64..1000, nested()).prop_map(|(pos, a)| Item {
            pos,
            payload: Payload::Action(Shared::new(a)),
        }),
        (1u64..1000, snapshot()).prop_map(|(pos, s)| Item {
            pos,
            payload: Payload::Blind(Shared::new(s)),
        }),
    ];
    prop_oneof![
        prop::collection::vec(item, 0..6).prop_map(|items| ToClient::Batch {
            items: items.into(),
        }),
        (any::<u16>(), any::<u32>(), 1u64..1000).prop_map(|(c, s, pos)| ToClient::Dropped {
            id: ActionId::new(ClientId(c), s),
            pos,
        }),
        (1u64..1000).prop_map(|pos| ToClient::GcUpTo { pos }),
    ]
}

/// Integers spread over every varint length; `any::<u64>()` alone almost
/// always draws a ten-byte form.
fn spread_u64() -> impl Strategy<Value = u64> {
    (0u32..64, any::<u64>()).prop_map(|(shift, v)| v >> shift)
}

fn spread_i64() -> impl Strategy<Value = i64> {
    (0u32..64, any::<i64>()).prop_map(|(shift, v)| v >> shift)
}

/// Bytes of the shortest LEB128 form of `v`.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

fn roundtrip_len<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: T) -> usize {
    let bytes = to_bytes(&v).unwrap();
    assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    bytes.len()
}

/// `v` counted, then encoded: the two lengths must agree.
fn count_then_encode<T: Serialize>(v: &T) -> (usize, usize) {
    let counted = encoded_len(v);
    (counted, to_bytes(v).unwrap().len())
}

/// Every baseline message that can be built from `up`'s parts, counted and
/// encoded.
fn baseline_sizes(up: &ToServer<Nested>, fresh: &Snapshot) -> Vec<(usize, usize)> {
    match up.clone() {
        ToServer::Submit { action } => vec![
            count_then_encode(&CentralUp {
                action: action.clone(),
            }),
            count_then_encode(&BcastUp {
                action: action.clone(),
            }),
            count_then_encode(&BcastDown {
                pos: 300,
                action: action.clone(),
            }),
            count_then_encode(&LockUp::Request {
                action: action.clone(),
            }),
            count_then_encode(&TsUp {
                action,
                read_versions: vec![(ObjectId(3), 300)],
                attempt: 2,
                writes: WriteLog::new(),
                aborted_noop: false,
            }),
        ],
        ToServer::Completion {
            pos,
            id,
            writes,
            aborted,
        } => vec![
            count_then_encode(&CentralDown {
                cause: id,
                pos,
                writes: writes.clone(),
                aborted,
            }),
            count_then_encode(&LockUp::<Nested>::Effect {
                pos,
                id,
                writes: writes.clone(),
                aborted,
            }),
            count_then_encode(&LockDown::Grant { pos, id }),
            count_then_encode(&LockDown::Update {
                pos,
                cause: id,
                writes: writes.clone(),
                aborted,
            }),
            count_then_encode(&TsDown::Commit {
                cause: id,
                attempt: 1,
                pos,
            }),
            count_then_encode(&TsDown::Abort {
                cause: id,
                attempt: 1,
                fresh: fresh.clone(),
                versions: vec![(ObjectId(1), pos)],
            }),
            count_then_encode(&TsDown::Update {
                pos,
                cause: id,
                writes,
                versions: vec![(ObjectId(1), pos)],
            }),
        ],
    }
}

/// A batch over `handles` picked by `picks`, optionally after a blind.
fn batch_of(
    handles: &[Shared<Nested>],
    picks: &[usize],
    blind: Option<&Shared<Snapshot>>,
) -> ToClient<Nested> {
    let mut items: Vec<Item<Nested>> = blind
        .map(|s| Item {
            pos: 1,
            payload: Payload::Blind(s.clone()),
        })
        .into_iter()
        .collect();
    for (k, &i) in picks.iter().enumerate() {
        items.push(Item {
            pos: 20_000 + k as u64,
            payload: Payload::Action(handles[i].clone()),
        });
    }
    ToClient::Batch {
        items: items.into(),
    }
}

/// The same batch built from never-serialized copies of every payload.
fn fresh_batch(
    handles: &[Shared<Nested>],
    picks: &[usize],
    blind: Option<&Shared<Snapshot>>,
) -> ToClient<Nested> {
    let handles: Vec<Shared<Nested>> = handles.iter().map(|h| Shared::new((**h).clone())).collect();
    let blind = blind.map(|s| Shared::new((**s).clone()));
    batch_of(&handles, picks, blind.as_ref())
}

#[test]
fn integer_boundaries_roundtrip_at_every_width() {
    for (v, len) in [
        (0u16, 1),
        (127, 1),
        (128, 2),
        (16383, 2),
        (16384, 3),
        (u16::MAX, 3),
    ] {
        assert_eq!(roundtrip_len(v), len, "u16 {v}");
    }
    for (v, len) in [
        (0u32, 1),
        (127, 1),
        (128, 2),
        (16383, 2),
        (16384, 3),
        (u32::MAX, 5),
    ] {
        assert_eq!(roundtrip_len(v), len, "u32 {v}");
    }
    for (v, len) in [
        (0u64, 1),
        (127, 1),
        (128, 2),
        (16383, 2),
        (16384, 3),
        (u64::MAX, 10),
    ] {
        assert_eq!(roundtrip_len(v), len, "u64 {v}");
    }
    // Zigzag: n ≥ 0 encodes as 2n, n < 0 as −2n − 1.
    for (v, len) in [
        (0i16, 1),
        (-64, 1),
        (127, 2),
        (128, 2),
        (16383, 3),
        (16384, 3),
        (i16::MAX, 3),
        (i16::MIN, 3),
    ] {
        assert_eq!(roundtrip_len(v), len, "i16 {v}");
    }
    for (v, len) in [
        (0i32, 1),
        (127, 2),
        (128, 2),
        (16383, 3),
        (i32::MAX, 5),
        (i32::MIN, 5),
    ] {
        assert_eq!(roundtrip_len(v), len, "i32 {v}");
    }
    for (v, len) in [
        (0i64, 1),
        (127, 2),
        (16384, 3),
        (i64::MAX, 10),
        (i64::MIN, 10),
    ] {
        assert_eq!(roundtrip_len(v), len, "i64 {v}");
    }
    for (v, len) in [(0u8, 1), (u8::MAX, 1)] {
        assert_eq!(roundtrip_len(v), len);
    }
    for (v, len) in [(i8::MIN, 1), (i8::MAX, 1)] {
        assert_eq!(roundtrip_len(v), len);
    }
    for c in ['a', 'é', '\u{10FFFF}'] {
        roundtrip_len(c);
    }
}

#[test]
fn malformed_varints_are_rejected_in_every_position() {
    // Overlong zero, as a scalar, a length and an enum variant index.
    assert_eq!(
        from_bytes::<u16>(&[0x80, 0x00]),
        Err(WireError::NonCanonical)
    );
    assert_eq!(
        from_bytes::<Vec<u8>>(&[0x80, 0x00]),
        Err(WireError::NonCanonical)
    );
    assert_eq!(
        from_bytes::<ToClient<Nested>>(&[0x82, 0x00, 0x05]).unwrap_err(),
        WireError::NonCanonical
    );
    // Eleven bytes.
    let mut eleven = vec![0x80u8; 10];
    eleven.push(0x00);
    assert_eq!(from_bytes::<u64>(&eleven), Err(WireError::VarintTooLong));
    // A u16 field given 70000, alone and inside a struct.
    let seventy_k = to_bytes(&70_000u32).unwrap();
    assert_eq!(
        from_bytes::<u16>(&seventy_k),
        Err(WireError::OutOfRange { max: 65535 })
    );
    let mut id = seventy_k.clone();
    id.push(0);
    assert_eq!(
        from_bytes::<ActionId>(&id),
        Err(WireError::OutOfRange { max: 65535 })
    );
    // Input that ends mid-varint.
    assert!(matches!(
        from_bytes::<u64>(&seventy_k[..2]),
        Err(WireError::Truncated { .. })
    ));
}

/// Arbitrary protocol messages upstream (client → server).
fn to_server() -> impl Strategy<Value = ToServer<Nested>> {
    prop_oneof![
        nested().prop_map(|action| ToServer::Submit { action }),
        (
            1u64..1000,
            any::<u16>(),
            any::<u32>(),
            write_log(),
            any::<bool>()
        )
            .prop_map(|(pos, c, s, writes, aborted)| ToServer::Completion {
                pos,
                id: ActionId::new(ClientId(c), s),
                writes,
                aborted,
            }),
    ]
}

proptest! {
    #[test]
    fn nested_enums_roundtrip(v in nested()) {
        let bytes = to_bytes(&v).unwrap();
        let back: Nested = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn scalar_tuples_roundtrip(
        a in any::<u64>(),
        b in any::<i32>(),
        c in any::<bool>(),
        d in -1e12f64..1e12,
        e in prop::collection::vec(any::<u16>(), 0..32)
    ) {
        let v = (a, b, c, d, e);
        let bytes = to_bytes(&v).unwrap();
        let back: (u64, i32, bool, f64, Vec<u16>) = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn write_logs_roundtrip(writes in prop::collection::vec((0u32..100, 0u16..8, value()), 0..40)) {
        let mut log = WriteLog::new();
        for (o, a, v) in writes {
            log.push(ObjectId(o), AttrId(a), v);
        }
        let bytes = to_bytes(&log).unwrap();
        let back: WriteLog = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, log);
    }

    #[test]
    fn snapshots_roundtrip(objs in prop::collection::vec((0u32..50, prop::collection::vec((0u16..6, value()), 0..6)), 0..12)) {
        let mut snap = Snapshot::new();
        for (id, attrs) in objs {
            snap.push(
                ObjectId(id),
                WorldObject::from_attrs(attrs.into_iter().map(|(a, v)| (AttrId(a), v))),
            );
        }
        let bytes = to_bytes(&snap).unwrap();
        let back: Snapshot = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, snap);
    }

    #[test]
    fn object_sets_and_ids_roundtrip(ids in prop::collection::vec(0u32..1000, 0..64), c in any::<u16>(), s in any::<u32>()) {
        let set: ObjectSet = ids.iter().map(|&i| ObjectId(i)).collect();
        let back: ObjectSet = from_bytes(&to_bytes(&set).unwrap()).unwrap();
        prop_assert_eq!(back, set);
        let id = ActionId::new(ClientId(c), s);
        let back: ActionId = from_bytes(&to_bytes(&id).unwrap()).unwrap();
        prop_assert_eq!(back, id);
    }

    #[test]
    fn corrupted_length_prefixes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes must either decode or error — never panic.
        let _ = from_bytes::<WriteLog>(&bytes);
        let _ = from_bytes::<Snapshot>(&bytes);
        let _ = from_bytes::<Vec<String>>(&bytes);
        let _ = from_bytes::<Nested>(&bytes);
    }

    /// Pooled / shared-payload encoding is byte-identical to the
    /// `to_bytes` oracle for arbitrary protocol messages — including over
    /// recycled (previously dirtied) pool buffers, and for `Shared`
    /// payload clones (the broadcast fan-out path encodes the clone).
    /// `encoded_len` agrees with it whether the message's `Shared` slots
    /// are fresh, encoded once, or cached, and so it does for the session
    /// envelopes and the baselines' messages.
    #[test]
    fn pooled_encoding_matches_oracle(
        down in prop::collection::vec(to_client(), 1..5),
        up in prop::collection::vec(to_server(), 1..5),
        fresh in snapshot(),
    ) {
        let mut pool = BufferPool::new();
        for msg in &down {
            let counted = encoded_len(msg);
            let oracle = to_bytes(msg).unwrap();
            prop_assert_eq!(counted, oracle.len(), "fresh ToClient count");
            let mut buf = pool.take();
            to_bytes_into(msg, &mut buf).unwrap();
            prop_assert_eq!(&buf, &oracle, "pooled ToClient encoding diverged");
            pool.put(buf);
            // An Arc-bumped clone is the exact message a shared-payload
            // recipient gets; it must encode to the same bytes.
            let mut buf = pool.take();
            to_bytes_into(&msg.clone(), &mut buf).unwrap();
            prop_assert_eq!(&buf, &oracle, "shared-clone encoding diverged");
            pool.put(buf);
            prop_assert_eq!(encoded_len(msg), oracle.len(), "cached ToClient count");
            let (counted, written) = count_then_encode(&SessionDown::Seq(300, msg.clone()));
            prop_assert_eq!(counted, written, "SessionDown count");
        }
        for msg in &up {
            let counted = encoded_len(msg);
            let oracle = to_bytes(msg).unwrap();
            prop_assert_eq!(counted, oracle.len(), "ToServer count");
            let mut buf = pool.take();
            to_bytes_into(msg, &mut buf).unwrap();
            prop_assert_eq!(&buf, &oracle, "pooled ToServer encoding diverged");
            pool.put(buf);
            let (counted, written) = count_then_encode(&SessionUp::Msg(msg.clone()));
            prop_assert_eq!(counted, written, "SessionUp count");
            for (counted, written) in baseline_sizes(msg, &fresh) {
                prop_assert_eq!(counted, written, "baseline message count");
            }
        }
        let (counted, written) = count_then_encode(&SessionUp::<ToServer<Nested>>::Ack(300));
        prop_assert_eq!(counted, written, "SessionUp::Ack count");
        // Every take after the first recycled a dirty buffer.
        prop_assert_eq!(pool.misses(), 1);
    }

    /// The decoder never panics, and a damaged frame — any strict prefix
    /// of a valid encoding, or a valid encoding with trailing garbage —
    /// always surfaces as an error, never as a silently wrong value.
    #[test]
    fn truncated_or_extended_frames_always_error(
        down in to_client(),
        up in to_server(),
        cut in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let down_bytes = to_bytes(&down).unwrap();
        let up_bytes = to_bytes(&up).unwrap();
        for (bytes, what) in [(&down_bytes, "ToClient"), (&up_bytes, "ToServer")] {
            // Strict prefix: the decoder must come up short.
            let cut = cut as usize % bytes.len();
            let r = if what == "ToClient" {
                from_bytes::<ToClient<Nested>>(&bytes[..cut]).map(|_| ())
            } else {
                from_bytes::<ToServer<Nested>>(&bytes[..cut]).map(|_| ())
            };
            prop_assert!(r.is_err(), "{} decoded from a truncated frame", what);
            // Extension: trailing bytes must be rejected.
            let mut extended = bytes.clone();
            extended.extend_from_slice(&tail);
            let r = if what == "ToClient" {
                from_bytes::<ToClient<Nested>>(&extended).map(|_| ())
            } else {
                from_bytes::<ToServer<Nested>>(&extended).map(|_| ())
            };
            prop_assert!(r.is_err(), "{} decoded with trailing bytes", what);
        }
    }

    #[test]
    fn varints_roundtrip_at_every_length(v in spread_u64(), n in spread_i64()) {
        let bytes = to_bytes(&v).unwrap();
        prop_assert_eq!(bytes.len(), varint_len(v));
        prop_assert_eq!(from_bytes::<u64>(&bytes).unwrap(), v);
        // The same bytes into narrower fields: in range decodes, beyond
        // range is a typed error.
        match u32::try_from(v) {
            Ok(v32) => prop_assert_eq!(from_bytes::<u32>(&bytes).unwrap(), v32),
            Err(_) => prop_assert_eq!(
                from_bytes::<u32>(&bytes),
                Err(WireError::OutOfRange { max: u32::MAX.into() })
            ),
        }
        match u16::try_from(v) {
            Ok(v16) => prop_assert_eq!(from_bytes::<u16>(&bytes).unwrap(), v16),
            Err(_) => prop_assert_eq!(
                from_bytes::<u16>(&bytes),
                Err(WireError::OutOfRange { max: u16::MAX.into() })
            ),
        }
        let bytes = to_bytes(&n).unwrap();
        prop_assert_eq!(from_bytes::<i64>(&bytes).unwrap(), n);
    }

    #[test]
    fn overlong_and_cut_varints_are_rejected(v in spread_u64(), pad in 1usize..4) {
        let bytes = to_bytes(&v).unwrap();
        // Re-encode with `pad` redundant zero groups.
        let mut long = bytes.clone();
        *long.last_mut().unwrap() |= 0x80;
        long.extend(std::iter::repeat_n(0x80, pad - 1));
        long.push(0x00);
        let want = if long.len() > 10 {
            WireError::VarintTooLong
        } else {
            WireError::NonCanonical
        };
        prop_assert_eq!(from_bytes::<u64>(&long), Err(want));
        // Every strict prefix of a multi-byte form is truncated.
        for cut in 1..bytes.len() {
            let truncated = matches!(
                from_bytes::<u64>(&bytes[..cut]),
                Err(WireError::Truncated { .. })
            );
            prop_assert!(truncated);
        }
    }

    /// Whatever decodes as an `ObjectSet` is strictly ascending and carries
    /// the signature its ids fold to; nothing else decodes.
    #[test]
    fn decoded_sets_carry_their_own_signature(
        ids in prop::collection::vec(0u32..40, 0..20),
        sort in any::<bool>(),
        noise in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        // Sorted half the time (duplicates kept), so ascending and
        // merely non-descending lists are both common.
        let mut ids = ids;
        if sort {
            ids.sort_unstable();
        }
        let bytes = to_bytes(&ids).unwrap();
        let ascending = ids.windows(2).all(|w| w[0] < w[1]);
        for candidate in [&bytes, &noise] {
            let Ok(set) = from_bytes::<ObjectSet>(candidate) else { continue };
            let decoded = set.as_slice();
            prop_assert!(decoded.windows(2).all(|w| w[0] < w[1]));
            let fold = set
                .iter()
                .fold(0u64, |s, id| s | ObjectSet::singleton(id).signature());
            prop_assert_eq!(set.signature(), fold);
        }
        prop_assert_eq!(from_bytes::<ObjectSet>(&bytes).is_ok(), ascending);
    }

    /// The splice is invisible on the wire: batches encoded with cold
    /// slots, warm slots, and slots shared with other batches are byte-equal
    /// to the same items built fresh. Counting them first, and again at
    /// every round, changes no byte and always gives the fresh length.
    #[test]
    fn spliced_batches_match_fresh_encodings(
        actions in prop::collection::vec(nested(), 1..6),
        picks in prop::collection::vec(any::<u16>(), 1..10),
        blind in snapshot(),
    ) {
        let handles: Vec<Shared<Nested>> = actions.into_iter().map(Shared::new).collect();
        let picks: Vec<usize> = picks.iter().map(|&p| p as usize % handles.len()).collect();
        let all: Vec<usize> = (0..handles.len()).collect();
        let blind = Shared::new(blind);
        let a = batch_of(&handles, &all, None);
        let b = batch_of(&handles, &picks, Some(&blind));
        let fresh_a = to_bytes(&fresh_batch(&handles, &all, None)).unwrap();
        let fresh_b = to_bytes(&fresh_batch(&handles, &picks, Some(&blind))).unwrap();
        let mut pool = BufferPool::new();
        // A count before any encode takes the first serialization of `b`'s
        // slots, so `a`'s first encode meets some of them warm.
        prop_assert_eq!(encoded_len(&b), fresh_b.len());
        // Cold, then warm, then spliced — and `b` shares `a`'s slots (and
        // may hold one handle several times).
        for round in 0..3 {
            for (msg, fresh) in [(&a, &fresh_a), (&b, &fresh_b)] {
                let mut buf = pool.take();
                to_bytes_into(msg, &mut buf).unwrap();
                prop_assert_eq!(&buf, fresh, "round {}", round);
                pool.put(buf);
                // A clone shares the item vector's slot too.
                prop_assert_eq!(&to_bytes(&msg.clone()).unwrap(), fresh);
                prop_assert_eq!(encoded_len(msg), fresh.len(), "round {}", round);
            }
        }
        let back: ToClient<Nested> = from_bytes(&fresh_b).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{b:?}"));
    }
}
