//! Dining Philosophers on the equator — the unbounded-closure workload.
//!
//! Section III-E: "Consider a scenario with n participants, with each of
//! them trying to grab two forks — one to their left and one to their right.
//! Let them be organized in the form of a circular ring located on earth's
//! equator. If each of them tries to pick up the two forks at the same tick,
//! then although the direct conflicts never involve more than two
//! participants, a transitive closure of conflicts encompasses the entire
//! world."
//!
//! This world exists to exercise exactly that: philosopher `i`'s grab
//! conflicts with the grabs of `i−1` and `i+1` through the shared forks, so
//! a ring of simultaneous grabs is one long conflict chain. The Information
//! Bound Model must break the chain by dropping a few grabs "at regular
//! intervals ... into numerous pieces, each of which satisfies the requisite
//! threshold" — while the closure-only models haul the whole ring to every
//! client.

use crate::action::{Action, GameWorld, Influence, Outcome};
use crate::geometry::Vec2;
use crate::ids::{ActionId, AttrId, ClientId, ObjectId};
use crate::objset::ObjectSet;
use crate::semantics::Semantics;
use crate::state::{WorldState, WriteLog};
use crate::worlds::Workload;
use std::sync::Arc;

/// Attribute on a fork: holder philosopher index, or −1 if free
/// ([`crate::value::Value::I64`]).
pub const HOLDER: AttrId = AttrId(0);
/// Attribute on a philosopher: meals eaten ([`crate::value::Value::I64`]).
pub const MEALS: AttrId = AttrId(1);
/// Attribute on a philosopher: is currently holding both forks
/// ([`crate::value::Value::Bool`]).
pub const EATING: AttrId = AttrId(2);

/// Configuration for the dining-philosophers ring.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiningConfig {
    /// Number of philosophers (= number of clients).
    pub philosophers: usize,
    /// Arc distance between adjacent philosophers, world units.
    pub spacing: f64,
    /// Reach of a grab action, world units. Grabs conflict only through
    /// shared forks; the radius feeds the bound models' distance tests.
    pub grab_radius: f64,
    /// How fast a philosopher could conceivably move (they do not, but the
    /// bound equations need a finite `s`).
    pub max_speed: f64,
}

impl Default for DiningConfig {
    fn default() -> Self {
        Self {
            philosophers: 64,
            spacing: 10.0,
            grab_radius: 6.0,
            max_speed: 1.0,
        }
    }
}

/// Immutable environment: the ring geometry.
#[derive(Debug)]
pub struct DiningEnv {
    /// The configuration.
    pub config: DiningConfig,
    /// Ring radius implied by `philosophers × spacing`.
    pub ring_radius: f64,
    /// Center of the ring in world coordinates.
    pub center: Vec2,
}

impl DiningEnv {
    /// The seat position of philosopher `i` on the ring.
    pub fn seat(&self, i: usize) -> Vec2 {
        let theta = std::f64::consts::TAU * i as f64 / self.config.philosophers as f64;
        self.center + Vec2::from_angle(theta) * self.ring_radius
    }

    /// The position of fork `i` (between philosophers `i−1` and `i`).
    pub fn fork_pos(&self, i: usize) -> Vec2 {
        let n = self.config.philosophers as f64;
        let theta = std::f64::consts::TAU * (i as f64 - 0.5) / n;
        self.center + Vec2::from_angle(theta) * self.ring_radius
    }
}

/// Object id of philosopher `i`.
pub fn philosopher(i: usize) -> ObjectId {
    ObjectId(i as u32)
}

/// Object id of fork `i` in a ring of `n` philosophers. Fork `i` sits to the
/// *left* of philosopher `i`; their right fork is fork `(i+1) mod n`.
pub fn fork(i: usize, n: usize) -> ObjectId {
    ObjectId((n + i % n) as u32)
}

/// The dining-philosophers actions.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum DiningAction {
    /// Try to pick up both adjacent forks atomically. Aborts (no-op) if
    /// either fork is held by someone else.
    Grab {
        /// Action identity.
        id: ActionId,
        /// Philosopher index (= client index).
        phil: usize,
        /// Ring size, so the action can name its forks.
        n: usize,
        /// Seat position, for influence.
        seat: Vec2,
        /// Grab radius, for influence.
        radius: f64,
        /// Declared read set.
        rs: ObjectSet,
        /// Declared write set.
        ws: ObjectSet,
    },
    /// Put both forks down (only has effect if we hold them).
    Release {
        /// Action identity.
        id: ActionId,
        /// Philosopher index.
        phil: usize,
        /// Ring size.
        n: usize,
        /// Seat position, for influence.
        seat: Vec2,
        /// Grab radius, for influence.
        radius: f64,
        /// Declared read set.
        rs: ObjectSet,
        /// Declared write set.
        ws: ObjectSet,
    },
}

impl DiningAction {
    fn parts(&self) -> (ActionId, usize, usize, Vec2, f64, &ObjectSet, &ObjectSet) {
        match self {
            DiningAction::Grab {
                id,
                phil,
                n,
                seat,
                radius,
                rs,
                ws,
            }
            | DiningAction::Release {
                id,
                phil,
                n,
                seat,
                radius,
                rs,
                ws,
            } => (*id, *phil, *n, *seat, *radius, rs, ws),
        }
    }
}

impl Action for DiningAction {
    type Env = DiningEnv;

    fn id(&self) -> ActionId {
        self.parts().0
    }

    fn read_set(&self) -> &ObjectSet {
        self.parts().5
    }

    fn write_set(&self) -> &ObjectSet {
        self.parts().6
    }

    fn influence(&self) -> Influence {
        let (_, _, _, seat, radius, _, _) = self.parts();
        Influence::sphere(seat, radius)
    }

    fn evaluate(&self, _env: &Self::Env, state: &WorldState) -> Outcome {
        match self {
            DiningAction::Grab { phil, n, .. } => {
                let p = philosopher(*phil);
                let left = fork(*phil, *n);
                let right = fork((*phil + 1) % *n, *n);
                let me = *phil as i64;
                let holder = |f: ObjectId| state.attr(f, HOLDER).and_then(|v| v.as_i64());
                match (holder(left), holder(right)) {
                    (Some(l), Some(r)) if (l == -1 || l == me) && (r == -1 || r == me) => {
                        let meals = state.attr(p, MEALS).and_then(|v| v.as_i64()).unwrap_or(0);
                        let mut w = WriteLog::new();
                        w.push(left, HOLDER, me.into());
                        w.push(right, HOLDER, me.into());
                        w.push(p, EATING, true.into());
                        w.push(p, MEALS, (meals + 1).into());
                        Outcome::ok(w)
                    }
                    // A fork is taken (contention) or not materialized
                    // (incomplete view): fatal conflict, behave as a no-op.
                    _ => Outcome::abort(),
                }
            }
            DiningAction::Release { phil, n, .. } => {
                let p = philosopher(*phil);
                let left = fork(*phil, *n);
                let right = fork((*phil + 1) % *n, *n);
                let me = *phil as i64;
                let mut w = WriteLog::new();
                let mut released = false;
                for f in [left, right] {
                    if state.attr(f, HOLDER).and_then(|v| v.as_i64()) == Some(me) {
                        w.push(f, HOLDER, (-1i64).into());
                        released = true;
                    }
                }
                if released {
                    w.push(p, EATING, false.into());
                    Outcome::ok(w)
                } else {
                    Outcome::abort()
                }
            }
        }
    }
}

/// The dining-philosophers world.
pub struct DiningWorld {
    env: Arc<DiningEnv>,
    initial: WorldState,
}

impl DiningWorld {
    /// Build the ring.
    pub fn new(config: DiningConfig) -> Self {
        assert!(config.philosophers >= 2, "need at least two philosophers");
        let n = config.philosophers;
        let ring_radius = (n as f64 * config.spacing) / std::f64::consts::TAU;
        // Keep coordinates positive so spatial structures over the bounding
        // box are straightforward.
        let center = Vec2::new(ring_radius + config.spacing, ring_radius + config.spacing);
        let env = DiningEnv {
            config,
            ring_radius,
            center,
        };
        let mut initial = WorldState::new();
        for i in 0..n {
            initial.set_attr(philosopher(i), MEALS, 0i64.into());
            initial.set_attr(philosopher(i), EATING, false.into());
            initial.set_attr(fork(i, n), HOLDER, (-1i64).into());
        }
        Self {
            env: Arc::new(env),
            initial,
        }
    }

    /// Build the grab action of philosopher `i`. Exposed so tests and the
    /// example can drive the ring directly.
    pub fn grab(&self, client: ClientId, seq: u32) -> DiningAction {
        let n = self.env.config.philosophers;
        let i = client.index();
        let p = philosopher(i);
        let (l, r) = (fork(i, n), fork((i + 1) % n, n));
        let rs: ObjectSet = [p, l, r].into_iter().collect();
        DiningAction::Grab {
            id: ActionId::new(client, seq),
            phil: i,
            n,
            seat: self.env.seat(i),
            radius: self.env.config.grab_radius,
            rs: rs.clone(),
            ws: rs,
        }
    }

    /// Build the release action of philosopher `i`.
    pub fn release(&self, client: ClientId, seq: u32) -> DiningAction {
        let n = self.env.config.philosophers;
        let i = client.index();
        let p = philosopher(i);
        let (l, r) = (fork(i, n), fork((i + 1) % n, n));
        let rs: ObjectSet = [p, l, r].into_iter().collect();
        DiningAction::Release {
            id: ActionId::new(client, seq),
            phil: i,
            n,
            seat: self.env.seat(i),
            radius: self.env.config.grab_radius,
            rs: rs.clone(),
            ws: rs,
        }
    }

    /// Total meals eaten across the ring in `state`.
    pub fn total_meals(&self, state: &WorldState) -> i64 {
        (0..self.env.config.philosophers)
            .map(|i| {
                state
                    .attr(philosopher(i), MEALS)
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0)
            })
            .sum()
    }
}

impl GameWorld for DiningWorld {
    type Env = DiningEnv;
    type Action = DiningAction;

    fn env(&self) -> &Arc<DiningEnv> {
        &self.env
    }

    fn initial_state(&self) -> WorldState {
        self.initial.clone()
    }

    fn semantics(&self) -> Semantics {
        let c = &self.env.config;
        let side = (self.env.ring_radius + c.spacing) * 2.0;
        Semantics::new(side, side, c.max_speed, c.grab_radius, c.grab_radius)
    }

    fn num_clients(&self) -> usize {
        self.env.config.philosophers
    }

    fn avatar_object(&self, client: ClientId) -> ObjectId {
        philosopher(client.index())
    }

    fn position_in(&self, _state: &WorldState, object: ObjectId) -> Option<Vec2> {
        let n = self.env.config.philosophers;
        let idx = object.index();
        if idx < n {
            Some(self.env.seat(idx))
        } else if idx < 2 * n {
            Some(self.env.fork_pos(idx - n))
        } else {
            None
        }
    }

    fn eval_cost_micros(&self, _action: &DiningAction) -> u64 {
        // A grab is a trivial comparison; charge a token cost.
        50
    }
}

/// Workload: every philosopher alternates grab / release each round —
/// the synchronized-tick scenario of Section III-E.
pub struct DiningWorkload {
    grabbing: Vec<bool>,
    world_env: Arc<DiningEnv>,
}

impl DiningWorkload {
    /// A workload over the given ring.
    pub fn new(world: &DiningWorld) -> Self {
        Self {
            grabbing: vec![true; world.num_clients()],
            world_env: Arc::clone(world.env()),
        }
    }
}

impl Workload<DiningWorld> for DiningWorkload {
    fn next_action(
        &mut self,
        client: ClientId,
        seq: u32,
        view: &WorldState,
        _now_ms: u64,
    ) -> Option<DiningAction> {
        let n = self.world_env.config.philosophers;
        let i = client.index();
        // Decide from the optimistic view: if we appear to be eating,
        // release; otherwise grab.
        let eating = view
            .attr(philosopher(i), EATING)
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        self.grabbing[i] = !eating;
        let p = philosopher(i);
        let (l, r) = (fork(i, n), fork((i + 1) % n, n));
        let rs: ObjectSet = [p, l, r].into_iter().collect();
        let env = &self.world_env;
        let id = ActionId::new(client, seq);
        Some(if eating {
            DiningAction::Release {
                id,
                phil: i,
                n,
                seat: env.seat(i),
                radius: env.config.grab_radius,
                rs: rs.clone(),
                ws: rs,
            }
        } else {
            DiningAction::Grab {
                id,
                phil: i,
                n,
                seat: env.seat(i),
                radius: env.config.grab_radius,
                rs: rs.clone(),
                ws: rs,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> DiningWorld {
        DiningWorld::new(DiningConfig {
            philosophers: n,
            ..DiningConfig::default()
        })
    }

    #[test]
    fn initial_state_all_forks_free() {
        let w = ring(5);
        let s = w.initial_state();
        assert_eq!(s.len(), 10, "5 philosophers + 5 forks");
        for i in 0..5 {
            assert_eq!(s.attr(fork(i, 5), HOLDER), Some((-1i64).into()));
        }
        assert_eq!(w.total_meals(&s), 0);
    }

    #[test]
    fn grab_succeeds_when_forks_free() {
        let w = ring(5);
        let mut s = w.initial_state();
        let a = w.grab(ClientId(2), 0);
        let o = a.evaluate(w.env(), &s);
        assert!(!o.aborted);
        s.apply_writes(&o.writes);
        assert_eq!(s.attr(fork(2, 5), HOLDER), Some(2i64.into()));
        assert_eq!(s.attr(fork(3, 5), HOLDER), Some(2i64.into()));
        assert_eq!(s.attr(philosopher(2), EATING), Some(true.into()));
        assert_eq!(w.total_meals(&s), 1);
    }

    #[test]
    fn adjacent_grab_aborts_after_neighbour_holds_fork() {
        let w = ring(5);
        let mut s = w.initial_state();
        s.apply_writes(&w.grab(ClientId(2), 0).evaluate(w.env(), &s).writes);
        // Philosopher 3 shares fork 3 with philosopher 2.
        let o = w.grab(ClientId(3), 0).evaluate(w.env(), &s);
        assert!(o.aborted, "contended grab must no-op");
        assert!(o.writes.is_empty());
        // But philosopher 0 (forks 0 and 1) is unaffected.
        let o0 = w.grab(ClientId(0), 0).evaluate(w.env(), &s);
        assert!(!o0.aborted);
    }

    #[test]
    fn release_frees_both_forks() {
        let w = ring(4);
        let mut s = w.initial_state();
        s.apply_writes(&w.grab(ClientId(1), 0).evaluate(w.env(), &s).writes);
        let o = w.release(ClientId(1), 1).evaluate(w.env(), &s);
        assert!(!o.aborted);
        s.apply_writes(&o.writes);
        assert_eq!(s.attr(fork(1, 4), HOLDER), Some((-1i64).into()));
        assert_eq!(s.attr(fork(2, 4), HOLDER), Some((-1i64).into()));
        assert_eq!(s.attr(philosopher(1), EATING), Some(false.into()));
        // Releasing when holding nothing aborts.
        assert!(w.release(ClientId(1), 2).evaluate(w.env(), &s).aborted);
    }

    #[test]
    fn read_sets_of_neighbours_overlap_forming_chains() {
        let w = ring(8);
        let a2 = w.grab(ClientId(2), 0);
        let a3 = w.grab(ClientId(3), 0);
        let a5 = w.grab(ClientId(5), 0);
        assert!(
            a2.write_set().intersects(a3.read_set()),
            "adjacent grabs conflict"
        );
        assert!(
            !a2.write_set().intersects(a5.read_set()),
            "distant grabs do not"
        );
    }

    #[test]
    fn seats_are_evenly_spaced_on_the_ring() {
        let w = ring(16);
        let env = w.env();
        let d01 = env.seat(0).dist(env.seat(1));
        let d12 = env.seat(1).dist(env.seat(2));
        assert!((d01 - d12).abs() < 1e-9);
        // Chord length is slightly below the arc spacing.
        assert!(d01 <= env.config.spacing + 1e-9);
        assert!(d01 > env.config.spacing * 0.95);
        // Fork sits between its philosophers.
        let f1 = env.fork_pos(1);
        assert!(f1.dist(env.seat(0)) < env.config.spacing);
        assert!(f1.dist(env.seat(1)) < env.config.spacing);
    }

    #[test]
    fn workload_alternates_grab_and_release() {
        let w = ring(4);
        let mut wl = DiningWorkload::new(&w);
        let mut s = w.initial_state();
        let a = wl.next_action(ClientId(0), 0, &s, 0).unwrap();
        assert!(matches!(a, DiningAction::Grab { .. }));
        s.apply_writes(&a.evaluate(w.env(), &s).writes);
        let b = wl.next_action(ClientId(0), 1, &s, 300).unwrap();
        assert!(matches!(b, DiningAction::Release { .. }));
    }

    #[test]
    fn position_in_covers_philosophers_and_forks() {
        let w = ring(4);
        let s = w.initial_state();
        assert!(w.position_in(&s, philosopher(0)).is_some());
        assert!(w.position_in(&s, fork(3, 4)).is_some());
        assert!(w.position_in(&s, ObjectId(99)).is_none());
    }
}
