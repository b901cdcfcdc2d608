//! Actions and game worlds — the database-transaction view of interaction.
//!
//! "An action `a` consists of a read set `RS(a)`, a write set `WS(a)`, and
//! the code that needs to be executed to compute values for `WS(a)` given
//! values for `RS(a)`" (Section III-C). The paper assumes
//! `RS(a) ⊇ WS(a)`; [`Action`] implementations must uphold that, and the
//! protocols debug-assert it.
//!
//! Actions are **pure**: [`Action::evaluate`] may read only declared
//! read-set objects and produces a [`WriteLog`] without mutating anything.
//! Like Bayou, the action code checks for conflicts when re-applied: it
//! either computes appropriate new values or detects a fatal conflict and
//! behaves as a no-op ([`Outcome::aborted`]).
//!
//! "The messages passed between the clients and the server primarily
//! consist of actions" (Section III-A), so an [`Action`] is
//! `serde::Serialize`: its encoding is both what crosses a real socket and
//! the size a simulated link charges for it.

use crate::geometry::Vec2;
use crate::ids::{ActionId, ClientId, ObjectId};
use crate::objset::ObjectSet;
use crate::semantics::{InterestClass, InterestMask, Semantics};
use crate::state::{WorldState, WriteLog};
use std::sync::Arc;

/// The spatial reach of an action — inputs to the Eq. 1 / Eq. 2 bound tests.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Influence {
    /// `p̄_A` — where the action happens (typically the issuer's avatar).
    pub center: Vec2,
    /// `r_A` — the maximum area-of-influence radius of the action.
    pub radius: f64,
    /// Optional velocity vector for area culling (Section IV-B): actions
    /// like shooting an arrow have a direction of travel; the conflict test
    /// can then predict *where* the influence will be, replacing the radius
    /// term with a moving point.
    pub velocity: Option<Vec2>,
    /// The action's interest class for inconsequential-action elimination
    /// (Section IV-A).
    pub class: InterestClass,
}

impl Influence {
    /// A stationary influence sphere of the default interest class.
    pub fn sphere(center: Vec2, radius: f64) -> Self {
        Self {
            center,
            radius,
            velocity: None,
            class: InterestClass::DEFAULT,
        }
    }

    /// Attach a velocity vector (Section IV-B area culling).
    pub fn with_velocity(mut self, v: Vec2) -> Self {
        self.velocity = Some(v);
        self
    }

    /// Set the interest class (Section IV-A).
    pub fn with_class(mut self, class: InterestClass) -> Self {
        self.class = class;
        self
    }
}

/// The result of evaluating an action against some state.
///
/// The protocols compare the optimistic outcome `v` with the stable outcome
/// `u` (Algorithm 1 step 5); equality is decided on the full write log plus
/// the abort flag.
#[derive(Clone, PartialEq, Eq, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Outcome {
    /// The attribute writes the action performs. Empty if aborted.
    pub writes: WriteLog,
    /// Did the action detect a fatal conflict and turn itself into a no-op?
    pub aborted: bool,
}

impl Outcome {
    /// An outcome carrying writes.
    pub fn ok(writes: WriteLog) -> Self {
        Self {
            writes,
            aborted: false,
        }
    }

    /// The aborted (no-op) outcome.
    pub fn abort() -> Self {
        Self {
            writes: WriteLog::new(),
            aborted: true,
        }
    }

    /// A 64-bit digest of the outcome, used as the comparison value `v` in
    /// completion messages where shipping the full write log is not needed.
    pub fn digest(&self) -> u64 {
        let h = if self.aborted { 0xDEAD } else { 0xBEEF };
        self.writes.fold_digest(h)
    }
}

/// An action: the unit of interaction, with declared read/write sets and
/// pure evaluation code.
///
/// `Env` is the immutable world environment (terrain, constants) shared by
/// all replicas; it is *not* part of the replicated state and evaluation
/// may read it freely.
pub trait Action: Clone + std::fmt::Debug + serde::Serialize + Send + Sync + 'static {
    /// Immutable environment the action code may consult (walls, tuning).
    type Env: Send + Sync + 'static;

    /// The globally unique identifier of the action.
    fn id(&self) -> ActionId;

    /// The client that issued the action.
    fn issuer(&self) -> ClientId {
        self.id().client
    }

    /// `RS(a)` — every object the evaluation code may read. Must be a
    /// superset of [`Action::write_set`].
    fn read_set(&self) -> &ObjectSet;

    /// `WS(a)` — every object the evaluation code may write.
    fn write_set(&self) -> &ObjectSet;

    /// The spatial reach of the action, for the bound models.
    fn influence(&self) -> Influence;

    /// Execute the action against `state`, producing its writes.
    ///
    /// Must be pure and deterministic: identical `(env, state)` must yield
    /// an identical [`Outcome`] on every replica. May read only objects in
    /// [`Action::read_set`]; a read-set object missing from `state` is a
    /// normal condition under the Incomplete World Model and the code must
    /// handle it deterministically (usually by ignoring the absent object).
    fn evaluate(&self, env: &Self::Env, state: &WorldState) -> Outcome;
}

/// A game world: initial state, environment, semantics, and the compute-cost
/// model tying action evaluation to simulated machine time.
pub trait GameWorld: Send + Sync + 'static {
    /// Immutable shared environment (terrain, constants).
    type Env: Send + Sync + 'static;
    /// The world's action type.
    type Action: Action<Env = Self::Env>;

    /// The shared environment. `Arc` so simulated machines can hold it
    /// without copying terrain.
    fn env(&self) -> &Arc<Self::Env>;

    /// The state of the world before any action has executed.
    fn initial_state(&self) -> WorldState;

    /// The world-wide semantic constants.
    fn semantics(&self) -> Semantics;

    /// Number of participating clients.
    fn num_clients(&self) -> usize;

    /// The avatar object controlled by `client`.
    fn avatar_object(&self, client: ClientId) -> ObjectId;

    /// The position of `object` in `state`, if it has one and is present.
    /// Used by servers to track `p̄_C`, the client positions in Eq. 1.
    fn position_in(&self, state: &WorldState, object: ObjectId) -> Option<Vec2>;

    /// Evaluation cost of `action` in microseconds of (simulated) machine
    /// time. This is the calibrated substitute for the paper's measured
    /// per-move times (7.44 ms/move at 100 000 walls on the EMULab nodes).
    fn eval_cost_micros(&self, action: &Self::Action) -> u64;

    /// The interest subscription of `client` (Section IV-A). Defaults to
    /// everything — the paper's uniform behaviour.
    fn client_interests(&self, client: ClientId) -> InterestMask {
        let _ = client;
        InterestMask::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AttrId;

    #[test]
    fn outcome_digest_separates_abort_from_empty_ok() {
        assert_ne!(
            Outcome::abort().digest(),
            Outcome::ok(WriteLog::new()).digest()
        );
    }

    #[test]
    fn outcome_digest_tracks_writes() {
        let mut w1 = WriteLog::new();
        w1.push(ObjectId(1), AttrId(0), crate::value::Value::I64(1));
        let mut w2 = WriteLog::new();
        w2.push(ObjectId(1), AttrId(0), crate::value::Value::I64(2));
        assert_ne!(Outcome::ok(w1).digest(), Outcome::ok(w2).digest());
    }

    #[test]
    fn influence_builders() {
        let i = Influence::sphere(Vec2::new(1.0, 2.0), 3.0)
            .with_velocity(Vec2::new(0.5, 0.0))
            .with_class(InterestClass(4));
        assert_eq!(i.center, Vec2::new(1.0, 2.0));
        assert_eq!(i.radius, 3.0);
        assert_eq!(i.velocity, Some(Vec2::new(0.5, 0.0)));
        assert_eq!(i.class, InterestClass(4));
    }
}
