//! What the wire promises beyond round trips: decoding refuses bytes that
//! would break an invariant the engines rely on, a server keeps serving
//! around such frames, and the encoded size of representative messages is
//! pinned so a codec change that grows the wire fails here first.

use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::engine::ServerNode;
use seve_core::msg::{Item, Payload, ToClient, ToServer};
use seve_core::pipeline::PipelineServer;
use seve_net::time::SimTime;
use seve_rt::wire::{encoded_len, from_bytes, to_bytes, WireError};
use seve_world::ids::{AttrId, ClientId, ObjectId};
use seve_world::objset::ObjectSet;
use seve_world::state::{Snapshot, WriteLog};
use seve_world::value::Value;
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, MoveAction, SpawnPattern,
};
use seve_world::{Action, GameWorld};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

thread_local! {
    /// Is this thread's largest allocation being recorded?
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// The largest allocation, in bytes, this thread asked for while
    /// `MEASURING`.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording the largest request each measuring
/// thread makes (other tests run on their own threads and are not seen).
struct PeakAlloc;

impl PeakAlloc {
    fn note(size: usize) {
        // `try_with`: a thread being torn down may still free or allocate.
        let _ = MEASURING.try_with(|on| {
            if on.get() {
                PEAK.with(|peak| peak.set(peak.get().max(size)));
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only reads and writes two const-initialized
// thread-local cells, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` makes on this thread.
fn peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    MEASURING.with(|on| on.set(true));
    let out = f();
    MEASURING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get))
}

/// Fifteen avatars a unit apart: every move reads all fifteen, the read-set
/// size of a `crowd` move.
fn crowd_world() -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        width: 200.0,
        height: 200.0,
        walls: 100,
        clients: 15,
        spawn: SpawnPattern::Grid { spacing: 1.0 },
        seed: 77,
        ..ManhattanConfig::default()
    }))
}

fn moves(world: &ManhattanWorld, n: u16, seq: u32) -> Vec<MoveAction> {
    let mut wl = ManhattanWorkload::new(world);
    let state = world.initial_state();
    (0..n)
        .map(|c| wl.make_move(ClientId(c), seq, &state).expect("move"))
        .collect()
}

/// `haystack` with its one occurrence of `needle` replaced by `with`.
fn substitute(haystack: &[u8], needle: &[u8], with: &[u8]) -> Vec<u8> {
    let at: Vec<usize> = haystack
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the needle occurs exactly once");
    let mut out = haystack.to_vec();
    out.splice(at[0]..at[0] + needle.len(), with.iter().copied());
    out
}

fn is_unsorted_error(e: &WireError) -> bool {
    matches!(e, WireError::Custom(m) if m.contains("not strictly ascending"))
}

/// A `Submit` whose read set a peer reordered or duplicated, byte for byte.
fn forged_submits(action: &MoveAction) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let valid = to_bytes(&ToServer::Submit {
        action: action.clone(),
    })
    .unwrap();
    let ids: Vec<ObjectId> = action.read_set().iter().collect();
    assert_eq!(ids.len(), 15);
    let needle = to_bytes(&ids).unwrap();
    let mut swapped = ids.clone();
    swapped.swap(3, 4);
    let mut duplicated = ids.clone();
    duplicated[4] = duplicated[3];
    let unsorted = substitute(&valid, &needle, &to_bytes(&swapped).unwrap());
    let dup = substitute(&valid, &needle, &to_bytes(&duplicated).unwrap());
    (valid, unsorted, dup)
}

#[test]
fn an_unsorted_or_duplicated_read_set_fails_to_decode() {
    let world = crowd_world();
    let action = &moves(&world, 1, 0)[0];
    let (valid, unsorted, dup) = forged_submits(action);
    let back: ToServer<MoveAction> = from_bytes(&valid).unwrap();
    let ToServer::Submit { action: back } = back else {
        panic!("a submit")
    };
    assert_eq!(back.read_set(), action.read_set());
    for forged in [unsorted, dup] {
        let err = from_bytes::<ToServer<MoveAction>>(&forged).unwrap_err();
        assert!(is_unsorted_error(&err), "{err}");
    }
}

#[test]
fn an_unsorted_object_in_a_blind_fails_to_decode() {
    let world = crowd_world();
    let obj = world.initial_state().get(ObjectId(3)).unwrap().clone();
    let attrs: Vec<(AttrId, Value)> = obj.iter().collect();
    assert!(attrs.len() >= 2);
    let mut snap = Snapshot::new();
    snap.push(ObjectId(3), obj);
    let batch: ToClient<MoveAction> = ToClient::Batch {
        items: vec![Item::blind(7, snap)].into(),
    };
    let valid = to_bytes(&batch).unwrap();
    assert!(from_bytes::<ToClient<MoveAction>>(&valid).is_ok());
    let mut reordered = attrs.clone();
    reordered.swap(0, 1);
    let forged = substitute(
        &valid,
        &to_bytes(&attrs).unwrap(),
        &to_bytes(&reordered).unwrap(),
    );
    let err = from_bytes::<ToClient<MoveAction>>(&forged).unwrap_err();
    assert!(is_unsorted_error(&err), "{err}");
}

/// Frames that fail to decode are dropped at the codec; the engine never
/// sees them and keeps serving the valid ones on either side.
#[test]
fn a_server_keeps_serving_around_forged_frames() {
    let world = crowd_world();
    let actions = moves(&world, 4, 0);
    let frames: Vec<(ClientId, Vec<u8>)> = vec![
        (ClientId(0), forged_submits(&actions[0]).0),
        (ClientId(1), forged_submits(&actions[1]).1),
        (ClientId(2), forged_submits(&actions[2]).2),
        (ClientId(3), forged_submits(&actions[3]).0),
    ];
    for mode in [ServerMode::Incomplete, ServerMode::InfoBound] {
        let mut server = PipelineServer::new(Arc::clone(&world), ProtocolConfig::with_mode(mode));
        let mut out = Vec::new();
        let mut rejected = 0;
        for (from, frame) in &frames {
            match from_bytes::<ToServer<MoveAction>>(frame) {
                Ok(msg) => {
                    server.deliver(SimTime::ZERO, *from, msg, &mut out);
                }
                Err(e) => {
                    assert!(is_unsorted_error(&e), "{e}");
                    rejected += 1;
                }
            }
        }
        let later = SimTime(1_000_000);
        server.tick(later, &mut out);
        server.push_tick(later, &mut out);
        assert_eq!(rejected, 2);
        assert_eq!(server.metrics().submissions, 2, "{mode:?}");
        let mut sent = BTreeSet::new();
        for (_, msg) in &out {
            // What the server sends still crosses the wire.
            let back: ToClient<MoveAction> = from_bytes(&to_bytes(msg).unwrap()).unwrap();
            if let ToClient::Batch { items } = back {
                for item in items.iter() {
                    if let Payload::Action(a) = &item.payload {
                        sent.insert(a.id());
                    }
                }
            }
        }
        let want: BTreeSet<_> = [actions[0].id(), actions[3].id()].into();
        assert_eq!(sent, want, "{mode:?}");
    }
}

/// `action`'s `Submit` frame cut inside its read set, whose length prefix
/// now claims 2³²−1 ids, and twelve ascending one-byte ids after it.
fn forged_length_submit(action: &MoveAction) -> Vec<u8> {
    let valid = to_bytes(&ToServer::Submit {
        action: action.clone(),
    })
    .unwrap();
    let needle = to_bytes(action.read_set()).unwrap();
    let at = valid
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the read set is in the frame");
    let mut forged = valid[..at].to_vec();
    forged.extend(to_bytes(&u32::MAX).unwrap());
    forged.extend(0u8..12);
    forged
}

/// The ids a decoder may reserve for a set ahead of their bytes, whatever
/// length the peer claims (the vendored serde's cap on a `Vec`).
const PREALLOC_CAP_BYTES: usize = 4096 * std::mem::size_of::<ObjectId>();

/// A read set claiming 2³²−1 ids in twelve bytes decodes its twelve ids
/// (spilling past the inline slots into a vector capped at 4096 ids) and
/// then fails with a typed `Truncated`, never reserving for the claimed
/// length; a server fed it between valid frames serves the valid ones.
#[test]
fn a_forged_read_set_length_is_truncated_without_preallocating_past_the_cap() {
    let world = crowd_world();
    let actions = moves(&world, 3, 0);
    let forged = forged_length_submit(&actions[1]);
    assert_eq!(
        forged[forged.len() - 17..forged.len() - 12],
        [0xff, 0xff, 0xff, 0xff, 0x0f]
    );
    let (result, peak) = peak_allocation(|| from_bytes::<ToServer<MoveAction>>(&forged));
    let err = result.unwrap_err();
    assert_eq!(err, WireError::Truncated { needed: 1, had: 0 }, "{err}");
    assert!(peak > 0, "the twelve ids spilled into a vector");
    assert!(
        peak <= PREALLOC_CAP_BYTES,
        "{peak} bytes reserved for a claimed 2^32-1 ids"
    );
    // A claim within the cap reserves no more than the claim: the bytes
    // after the prefix decide how much of it is ever filled.
    let mut honest = forged.clone();
    let prefix = forged.len() - 17;
    honest.splice(prefix..prefix + 5, to_bytes(&12u32).unwrap());
    let (result, peak) = peak_allocation(|| from_bytes::<ObjectSet>(&honest[prefix..]));
    assert_eq!(result.unwrap().len(), 12);
    assert!(peak <= 12 * std::mem::size_of::<ObjectId>(), "{peak}");

    let frames: Vec<(ClientId, Vec<u8>)> = vec![
        (ClientId(0), forged_submits(&actions[0]).0),
        (ClientId(1), forged),
        (ClientId(2), forged_submits(&actions[2]).0),
    ];
    for mode in [ServerMode::Incomplete, ServerMode::InfoBound] {
        let mut server = PipelineServer::new(Arc::clone(&world), ProtocolConfig::with_mode(mode));
        let mut out = Vec::new();
        let mut rejected = 0;
        for (from, frame) in &frames {
            match from_bytes::<ToServer<MoveAction>>(frame) {
                Ok(msg) => {
                    server.deliver(SimTime::ZERO, *from, msg, &mut out);
                }
                Err(e) => {
                    assert!(matches!(e, WireError::Truncated { .. }), "{e}");
                    rejected += 1;
                }
            }
        }
        let later = SimTime(1_000_000);
        server.tick(later, &mut out);
        server.push_tick(later, &mut out);
        assert_eq!(rejected, 1);
        assert_eq!(server.metrics().submissions, 2, "{mode:?}");
        let mut sent = BTreeSet::new();
        for (_, msg) in &out {
            let back: ToClient<MoveAction> = from_bytes(&to_bytes(msg).unwrap()).unwrap();
            if let ToClient::Batch { items } = back {
                for item in items.iter() {
                    if let Payload::Action(a) = &item.payload {
                        sent.insert(a.id());
                    }
                }
            }
        }
        let want: BTreeSet<_> = [actions[0].id(), actions[2].id()].into();
        assert_eq!(sent, want, "{mode:?}");
    }
}

/// `action`'s `Submit` frame with its read or write set replaced, byte
/// for byte. A move's read set is encoded right before its write set, so
/// the two together occur once.
fn forged_sets(action: &MoveAction, rs: &ObjectSet, ws: &ObjectSet) -> Vec<u8> {
    let valid = to_bytes(&ToServer::Submit {
        action: action.clone(),
    })
    .unwrap();
    let sets = |rs: &ObjectSet, ws: &ObjectSet| {
        let mut b = to_bytes(rs).unwrap();
        b.extend(to_bytes(ws).unwrap());
        b
    };
    substitute(
        &valid,
        &sets(action.read_set(), action.write_set()),
        &sets(rs, ws),
    )
}

/// Frames that decode but name objects outside the world, or write objects
/// the action never declared, are refused by the server and change nothing:
/// ζ_S is a dense table, so an id a peer picks must never reach it.
#[test]
fn a_server_refuses_ids_outside_the_world_and_undeclared_writes() {
    let world = crowd_world();
    let initial = world.initial_state();
    let actions = moves(&world, 4, 0);
    let beyond = ObjectId(u32::MAX);
    let submit = |a: &MoveAction| to_bytes(&ToServer::Submit { action: a.clone() }).unwrap();
    let completion = |writes: WriteLog| {
        to_bytes(&ToServer::<MoveAction>::Completion {
            pos: 1,
            id: actions[0].id(),
            writes,
            aborted: false,
        })
        .unwrap()
    };
    let real = actions[0].evaluate(world.env(), &initial).writes;
    assert!(!real.is_empty());
    assert_eq!(actions[0].write_set().as_slice(), &[ObjectId(0)]);
    let mut onto_beyond = real.clone();
    onto_beyond.push(beyond, AttrId(0), Value::I64(1));
    let mut undeclared = WriteLog::new();
    undeclared.push(ObjectId(9), AttrId(0), Value::I64(1));
    let mut rs_beyond = actions[1].read_set().clone();
    rs_beyond.insert(beyond);
    let frames: Vec<(ClientId, Vec<u8>)> = vec![
        (ClientId(0), submit(&actions[0])),
        (
            ClientId(1),
            forged_sets(
                &actions[1],
                actions[1].read_set(),
                &ObjectSet::singleton(beyond),
            ),
        ),
        (ClientId(2), submit(&actions[2])),
        (
            ClientId(1),
            forged_sets(&actions[1], &rs_beyond, actions[1].write_set()),
        ),
        (ClientId(0), completion(onto_beyond)),
        (ClientId(0), completion(undeclared)),
        (ClientId(0), completion(real.clone())),
        (ClientId(3), submit(&actions[3])),
    ];
    let mut want = initial.clone();
    want.apply_writes(&real);
    for mode in [ServerMode::Incomplete, ServerMode::InfoBound] {
        let mut server = PipelineServer::new(Arc::clone(&world), ProtocolConfig::with_mode(mode));
        let mut out = Vec::new();
        for (k, (from, frame)) in frames.iter().enumerate() {
            let msg = from_bytes::<ToServer<MoveAction>>(frame).expect("every frame decodes");
            let now = SimTime(1_000 * k as u64);
            server.deliver(now, *from, msg, &mut out);
            assert_eq!(server.zeta_s().len(), initial.len(), "{mode:?}");
            // One push cycle ahead of the completions, so the bounded mode
            // ships position 1 before it is installed.
            server.tick(now, &mut out);
            server.push_tick(now, &mut out);
        }
        let m = server.metrics();
        assert_eq!(m.refused, 4, "{mode:?}");
        assert_eq!(m.submissions, 3, "{mode:?}");
        assert_eq!(m.installed, 1, "{mode:?}");
        assert_eq!(server.last_committed(), 1, "{mode:?}");
        assert_eq!(
            *server.zeta_s(),
            want,
            "{mode:?}: only the valid completion"
        );
        let mut sent = BTreeSet::new();
        for (_, msg) in &out {
            let back: ToClient<MoveAction> = from_bytes(&to_bytes(msg).unwrap()).unwrap();
            if let ToClient::Batch { items } = back {
                for item in items.iter() {
                    if let Payload::Action(a) = &item.payload {
                        sent.insert(a.id());
                    }
                }
            }
        }
        let served: BTreeSet<_> = [actions[0].id(), actions[2].id(), actions[3].id()].into();
        assert_eq!(sent, served, "{mode:?}");
        // The serializer's per-object tables are indexed by object id: a
        // refused frame must not have sized them. The write index names
        // only the world's objects, and still holds the uncommitted moves.
        let index = server.state().queue.index_snapshot();
        assert!(!index.is_empty(), "{mode:?}");
        assert!(
            index.keys().all(|o| o.index() < initial.len()),
            "{mode:?}: {:?}",
            index.keys().last()
        );
    }
}

/// Encoded bytes of representative messages, which are also what the
/// simulator charges (`encoded_len`, counted here before any encode). A
/// codec change that grows any of these fails here, not only in the
/// benchmark.
#[test]
fn golden_encoded_sizes() {
    let world = crowd_world();
    let state = world.initial_state();
    // Six moves with 15-id read sets behind a one-object blind, at queue
    // positions and sequence numbers of a mid-run `crowd` batch.
    let six = moves(&world, 6, 200);
    let mut snap = Snapshot::new();
    snap.push(ObjectId(3), state.get(ObjectId(3)).unwrap().clone());
    let mut items = vec![Item::blind(20_000, snap)];
    for (k, a) in six.iter().enumerate() {
        assert_eq!(a.read_set().len(), 15);
        items.push(Item::action(20_001 + k as u64, a.clone()));
    }
    let batch: ToClient<MoveAction> = ToClient::Batch {
        items: items.into(),
    };
    let submit: ToServer<MoveAction> = ToServer::Submit {
        action: six[0].clone(),
    };
    let completion: ToServer<MoveAction> = ToServer::Completion {
        pos: 20_001,
        id: six[0].id(),
        writes: six[0].evaluate(world.env(), &state).writes,
        aborted: false,
    };
    let gc: ToClient<MoveAction> = ToClient::GcUpTo { pos: 20_000 };
    let counted = [
        encoded_len(&batch),
        encoded_len(&submit),
        encoded_len(&completion),
        encoded_len(&gc),
    ];
    let real = [
        to_bytes(&batch).unwrap().len(),
        to_bytes(&submit).unwrap().len(),
        to_bytes(&completion).unwrap().len(),
        to_bytes(&gc).unwrap().len(),
    ];
    assert_eq!(
        real,
        [546, 80, 51, 4],
        "real bytes: batch, submit, completion, gc"
    );
    assert_eq!(counted, real, "counted bytes");
}
