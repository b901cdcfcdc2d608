//! Protocol messages.
//!
//! "In our action based protocols, the messages passed between the clients
//! and the server primarily consist of actions, as opposed to objects"
//! (Section III-A). Four message kinds flow:
//!
//! * client → server: [`ToServer::Submit`] (step 2 of Algorithms 1/4) and
//!   [`ToServer::Completion`] (step 5 of Algorithm 4).
//! * server → client: [`ToClient::Batch`] of ordered [`Item`]s — serialized
//!   actions and blind writes `W(S, ζ_S(S))`; [`ToClient::Dropped`] abort
//!   notices from Algorithm 7; and [`ToClient::GcUpTo`] install notices
//!   enabling client-side garbage collection (Section III-C).
//!
//! A message's size is the number of bytes the codec writes for it,
//! [`wire::encoded_len`]: the simulated links charge that for bandwidth
//! (Figure 9), so there is no second model of the format to drift.

use crate::engine::{ShareId, ShareKey};
use seve_net::wire;
use seve_world::ids::{ActionId, QueuePos};
use seve_world::state::{Snapshot, WriteLog};
use seve_world::Action;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A reference-counted payload that encodes transparently: `Shared<T>` has
/// the exact wire bytes of a bare `T`, and encodes them at most twice.
///
/// A push cycle builds one `Shared` per queued action, snapshot or item
/// vector, and every per-client message clone is an `Arc` bump. The value's
/// first serialization runs the codec as usual. The second encodes it once
/// more into a slot the clones share, and that and every later
/// serialization copy the slot's bytes into the output through the codec's
/// [`wire::Raw`] splice. So an action sent to one client is encoded once,
/// and an action sent to 45 is encoded twice and copied 44 times. Counting
/// ([`wire::encoded_len`]) is serializing, so a simulated link charging a
/// payload's size goes through the same slot: the second count fills it
/// and later counts take its length. [`Shared::ptr_id`] gives transports a
/// frame-cache key ([`ShareId::Ptr`]).
pub struct Shared<T>(Arc<Slot<T>>);

struct Slot<T> {
    value: T,
    /// Set by the first serialization. Publishes nothing: a lost race
    /// only means one more inline encode.
    serialized: AtomicBool,
    /// `value`'s wire bytes, filled by the second.
    encoded: OnceLock<Vec<u8>>,
}

impl<T> Shared<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Slot {
            value,
            serialized: AtomicBool::new(false),
            encoded: OnceLock::new(),
        }))
    }

    /// The allocation's address, as a sharing identity. Only meaningful
    /// while a clone is alive (the address cannot be recycled under it).
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> std::ops::Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.value == other.0.value
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

// The vendored serde has no `rc` feature, and we want byte-transparency
// (no Arc framing on the wire) anyway — forward both impls by hand.
impl<T: serde::Serialize> serde::Serialize for Shared<T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let slot = &*self.0;
        if let Some(bytes) = slot.encoded.get() {
            return wire::Raw(bytes).serialize(serializer);
        }
        if !slot.serialized.load(Ordering::Relaxed) {
            slot.serialized.store(true, Ordering::Relaxed);
            return slot.value.serialize(serializer);
        }
        let bytes = wire::to_bytes(&slot.value).map_err(serde::ser::Error::custom)?;
        wire::Raw(slot.encoded.get_or_init(|| bytes)).serialize(serializer)
    }
}

impl<'de, T: serde::Deserialize<'de>> serde::Deserialize<'de> for Shared<T> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Shared::new)
    }
}

/// An entry in a server→client batch, ordered by queue position.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Item<A> {
    /// For an action: its serialization position `pos(a)`. For a blind
    /// write: the committed position whose state it captures (`as_of`);
    /// it applies after every action at or before that position.
    pub pos: QueuePos,
    /// The payload.
    pub payload: Payload<A>,
}

/// The payload of an [`Item`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum Payload<A> {
    /// A serialized action to evaluate at its position.
    Action(Shared<A>),
    /// A blind write `W(S, ζ_S(S))`: authoritative committed values.
    Blind(Shared<Snapshot>),
}

impl<A: Action> Item<A> {
    /// An action item.
    pub fn action(pos: QueuePos, a: impl Into<Shared<A>>) -> Self {
        Item {
            pos,
            payload: Payload::Action(a.into()),
        }
    }

    /// A blind-write item capturing committed state as of `as_of`.
    pub fn blind(as_of: QueuePos, snap: impl Into<Shared<Snapshot>>) -> Self {
        Item {
            pos: as_of,
            payload: Payload::Blind(snap.into()),
        }
    }
}

/// Client → server messages.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum ToServer<A> {
    /// Submit a freshly created action for serialization (Algorithm 1/4
    /// step 2).
    Submit {
        /// The action.
        action: A,
    },
    /// Report the stable result of an evaluated action (Algorithm 4 step 5).
    /// Carries the full write log because the server installs *values* into
    /// ζ_S without executing game logic (Algorithm 5 step 5).
    Completion {
        /// The queue position of the completed action.
        pos: QueuePos,
        /// The action's identity (for cross-checking).
        id: ActionId,
        /// The computed writes (empty if the action aborted).
        writes: WriteLog,
        /// Did the action abort (behave as a no-op)?
        aborted: bool,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum ToClient<A> {
    /// An ordered batch of serialized actions and blind writes.
    Batch {
        /// Items in ascending position order (blind writes first among
        /// equal positions). Refcounted so a broadcast span is built once
        /// and shared by every recipient's message.
        items: Shared<Vec<Item<A>>>,
    },
    /// The client's own action was dropped by the Information Bound Model
    /// (Algorithm 7): it aborts as a no-op everywhere.
    Dropped {
        /// Identity of the dropped action.
        id: ActionId,
        /// The queue position it held.
        pos: QueuePos,
    },
    /// Everything at or before `pos` is installed in ζ_S; the client may
    /// garbage-collect its replay log up to there (Section III-C).
    GcUpTo {
        /// The last installed position.
        pos: QueuePos,
    },
}

impl<A> ShareKey for ToClient<A> {
    fn share_key(&self) -> Option<ShareId> {
        match self {
            // Two batches sharing one item vector encode identically: the
            // variant tag and the items are the whole message.
            ToClient::Batch { items } => Some(ShareId::Ptr(items.ptr_id())),
            // GC notices for one install epoch are identical by value.
            ToClient::GcUpTo { pos } => Some(ShareId::Gc(*pos)),
            // Drop notices are personal — never shared.
            ToClient::Dropped { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::action::{Influence, Outcome};
    use seve_world::geometry::Vec2;
    use seve_world::ids::{AttrId, ClientId, ObjectId};
    use seve_world::objset::ObjectSet;
    use seve_world::state::WorldState;
    use wire::encoded_len;

    /// A minimal test action.
    #[derive(Clone, Debug, serde::Serialize)]
    pub struct NopAction {
        id: ActionId,
        set: ObjectSet,
    }

    impl NopAction {
        pub fn new(client: u16, seq: u32) -> Self {
            Self {
                id: ActionId::new(ClientId(client), seq),
                set: ObjectSet::singleton(ObjectId(0)),
            }
        }
    }

    impl Action for NopAction {
        type Env = ();
        fn id(&self) -> ActionId {
            self.id
        }
        fn read_set(&self) -> &ObjectSet {
            &self.set
        }
        fn write_set(&self) -> &ObjectSet {
            &self.set
        }
        fn influence(&self) -> Influence {
            Influence::sphere(Vec2::ZERO, 1.0)
        }
        fn evaluate(&self, _env: &(), _state: &WorldState) -> Outcome {
            Outcome::abort()
        }
    }

    #[test]
    fn item_sizes() {
        // A position varint and a payload tag, then the payload's own
        // bytes: `Shared` adds nothing.
        let action = NopAction::new(0, 0);
        let a = Item::action(1, action.clone());
        assert_eq!(encoded_len(&a), 1 + 1 + encoded_len(&action));
        let mut snap = Snapshot::new();
        snap.push(ObjectId(1), seve_world::WorldObject::new());
        let b: Item<NopAction> = Item::blind(300, snap.clone());
        assert_eq!(encoded_len(&b), 2 + 1 + encoded_len(&snap));
    }

    #[test]
    fn batch_size_sums_items() {
        let items = vec![
            Item::action(1, NopAction::new(0, 0)),
            Item::action(2, NopAction::new(1, 0)),
        ];
        let sum: usize = items.iter().map(encoded_len).sum();
        let batch: ToClient<NopAction> = ToClient::Batch {
            items: items.into(),
        };
        // The variant tag and the vector's length, then the items.
        assert_eq!(encoded_len(&batch), 1 + 1 + sum);
    }

    #[test]
    fn completion_size_includes_writes() {
        let mut w = WriteLog::new();
        w.push(ObjectId(0), AttrId(0), 1i64.into());
        let id = ActionId::new(ClientId(0), 0);
        let m: ToServer<NopAction> = ToServer::Completion {
            pos: 3,
            id,
            writes: w.clone(),
            aborted: false,
        };
        // Tag, position, id, writes, abort flag.
        assert_eq!(
            encoded_len(&m),
            1 + 1 + encoded_len(&id) + encoded_len(&w) + 1
        );
    }
}
