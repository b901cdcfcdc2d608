//! # seve-bench — the paper's evaluation, regenerated
//!
//! Two kinds of artifacts live here:
//!
//! * the **`repro` binary** (`cargo run -p seve-bench --release --bin
//!   repro`) — regenerates every table and figure of Section V as text
//!   series (see `EXPERIMENTS.md` for recorded output), plus the
//!   thousand-client `sim-scale` run;
//! * **Criterion benches** (`cargo bench -p seve-bench`) — the figures at
//!   reduced scale (`figures`), the paper's in-text closure cost claim
//!   (`closure_micro`: Algorithms 6 and 7 over realistic queues), one
//!   protocol step per engine (`protocol_step`), and the substrate's inner
//!   loops (`substrate`).
//!
//! End-to-end throughput and latency are measured by `bench/` at the repo
//! root, not here. The library portion provides small shared helpers for
//! the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use seve_sim::experiment::Scale;

/// The scale benches run at (figures are simulations; Criterion measures
/// the wall-clock of regenerating them at reduced size).
pub const BENCH_SCALE: Scale = Scale::Quick;

pub mod replay_fixture {
    //! A positioned action stream for the client replay benches, with an
    //! out-of-order arrival schedule: every fourth position is delivered
    //! ~twelve positions late — half of the stragglers touching a private
    //! object (the commute fast path applies), half touching the shared
    //! pool (a genuine suffix replay).

    use seve_world::action::{Action, Influence, Outcome};
    use seve_world::geometry::Vec2;
    use seve_world::ids::{ActionId, AttrId, ClientId, ObjectId, QueuePos};
    use seve_world::objset::ObjectSet;
    use seve_world::state::{WorldState, WriteLog};

    /// Attribute holding each object's counter.
    pub const ATTR: AttrId = AttrId(0);
    /// Size of the shared object pool the in-order stream cycles through.
    pub const POOL: u32 = 24;
    /// Delayed stragglers arrive after this many later positions.
    pub const DELAY: u64 = 12;
    /// The object commuting stragglers write. One suffices: a straggler's
    /// log suffix only ever holds in-order positions (any straggler at a
    /// later position arrives strictly later still), so no commuting
    /// straggler ever finds another in its suffix.
    const PRIVATE: ObjectId = ObjectId(1_000);

    /// A state-dependent increment over a small object set: each object's
    /// counter is read and rewritten, so replay order is observable and
    /// RS = WS ⊇ WS as the paper assumes.
    #[derive(Clone, Debug, serde::Serialize)]
    pub struct StormAction {
        id: ActionId,
        delta: i64,
        set: ObjectSet,
    }

    impl Action for StormAction {
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
            Influence::sphere(Vec2::ZERO, 0.0)
        }
        fn evaluate(&self, _env: &(), s: &WorldState) -> Outcome {
            let mut w = WriteLog::new();
            for obj in self.set.iter() {
                let cur = s.attr(obj, ATTR).and_then(|v| v.as_i64()).unwrap_or(0);
                w.push(obj, ATTR, (cur + self.delta).into());
            }
            Outcome::ok(w)
        }
    }

    /// Is this position delivered late? One in four — a bursty link.
    fn is_delayed(pos: u64) -> bool {
        pos % 4 == 1
    }

    /// Do the writes of a delayed position stay private (commuting)?
    fn is_commuting(pos: u64) -> bool {
        (pos / 4).is_multiple_of(2)
    }

    /// The action at `pos`. In-order positions increment a run of three
    /// shared-pool objects (avatar-sized write sets); conflicting
    /// stragglers overlap the suffix's pool slice; commuting stragglers
    /// touch the private object nothing in any suffix ever reads.
    fn action_at(pos: u64) -> StormAction {
        let mut set = ObjectSet::new();
        if is_delayed(pos) && is_commuting(pos) {
            set.insert(PRIVATE);
        } else if is_delayed(pos) {
            // Conflict by construction: position pos + 6 (already applied
            // by the time this straggler lands) uses (pos + 6) % POOL.
            set.insert(ObjectId(pos as u32 % POOL));
            set.insert(ObjectId((pos as u32 + 6) % POOL));
        } else {
            for k in 0..3 {
                set.insert(ObjectId((pos as u32 + k) % POOL));
            }
        }
        StormAction {
            id: ActionId::new(ClientId((pos % 7) as u16), pos as u32),
            delta: 1 + (pos % 5) as i64,
            set,
        }
    }

    /// The storm's arrival schedule: positions `1..=len` with every
    /// straggler re-ranked `DELAY` positions later (deterministic — no
    /// randomness, so every repeat sees the same stream).
    pub fn storm(len: usize) -> Vec<(QueuePos, StormAction)> {
        let mut ranked: Vec<(u64, QueuePos)> = (1..=len as u64)
            .map(|p| {
                (
                    if is_delayed(p) {
                        2 * (p + DELAY) + 1
                    } else {
                        2 * p
                    },
                    p,
                )
            })
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, p)| (p, action_at(p))).collect()
    }

    /// The world the storm runs on: every touched object zeroed.
    pub fn initial_state(len: usize) -> WorldState {
        let mut s = WorldState::new();
        for p in 1..=len as u64 {
            for obj in action_at(p).set.iter() {
                s.set_attr(obj, ATTR, 0i64.into());
            }
        }
        s
    }
}
