//! Manhattan People — the paper's evaluation workload (Section V).
//!
//! "It consists of avatars moving about in a rectangular area and colliding
//! with walls or other avatars. Whenever an avatar bumps into something, it
//! changes its direction by 90°. By adjusting the number of walls, we can
//! control the computational complexity per action, while the number of
//! participants controls the expected number of conflicts between actions."
//!
//! ## Cost model calibration
//!
//! The paper measured, on its EMULab Pentium-III nodes, an average of
//! **6.95 ms per move per 1 000 visible walls** and **7.44 ms per move** at
//! 100 000 walls. We reproduce those constants as a *virtual* compute-cost
//! model: a move costs `base + per_wall × visible_walls` microseconds of
//! simulated machine time, with a wall-visibility radius chosen so that
//! 100 000 walls in the 1000×1000 world yield ≈1 000 visible walls
//! (the paper's own observation). The trigonometric collision evaluation
//! itself runs for real — only the *clock charged* is modeled, because
//! 2001-era JVM timings cannot be reproduced on modern hardware.

use crate::action::{Action, GameWorld, Influence, Outcome};
use crate::geometry::{Aabb, Vec2};
use crate::ids::{ActionId, AttrId, ClientId, ObjectId};
use crate::objset::ObjectSet;
use crate::semantics::Semantics;
use crate::state::{WorldState, WriteLog};
use crate::terrain::Terrain;
use crate::worlds::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Attribute: avatar position ([`crate::value::Value::Vec2`]).
pub const POS: AttrId = AttrId(0);
/// Attribute: avatar heading, a unit vector ([`crate::value::Value::Vec2`]).
pub const DIR: AttrId = AttrId(1);
/// Attribute: number of bumps suffered ([`crate::value::Value::I64`]).
pub const BUMPS: AttrId = AttrId(2);

/// How avatars are initially placed.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SpawnPattern {
    /// Uniformly at random over the world.
    Uniform,
    /// In social clusters: groups of `cluster_size` within `cluster_radius`
    /// of a random cluster center. "Humans are social beings, so avatars can
    /// be expected to form clusters in a real system" (Section V-B.1).
    Clustered {
        /// Avatars per cluster.
        cluster_size: usize,
        /// Radius of each cluster.
        cluster_radius: f64,
    },
    /// A regular grid with the given spacing, filling from the world origin
    /// — the Figure 8 / Table II density setup ("avatars were initially
    /// positioned 4 units apart from each other").
    Grid {
        /// Distance between adjacent avatars.
        spacing: f64,
    },
}

/// Configuration of a Manhattan People world. Defaults are Table I.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ManhattanConfig {
    /// World width in units (Table I: 1000).
    pub width: f64,
    /// World height in units (Table I: 1000).
    pub height: f64,
    /// Number of wall segments (Table I: up to 100 000).
    pub walls: usize,
    /// Wall length (Section V-A.2: 10).
    pub wall_len: f64,
    /// Number of clients / avatars (Table I: up to 64).
    pub clients: usize,
    /// Move effect range `r_A` (Table I: 10 units).
    pub move_effect_range: f64,
    /// Avatar visibility radius, used by visibility-based baselines and
    /// density measurements (Table I: 30 units).
    pub visibility: f64,
    /// Maximum avatar speed `s`, units/second.
    pub speed: f64,
    /// Duration of one move, milliseconds (Table I: one move per 300 ms).
    pub move_ms: u64,
    /// Minimum separation that counts as bumping into another avatar.
    pub collision_sep: f64,
    /// Spawn layout.
    pub spawn: SpawnPattern,
    /// Master seed for terrain + spawns + workload randomness.
    pub seed: u64,
    /// Fixed base cost per move, microseconds.
    pub base_cost_us: u64,
    /// Cost per visible wall, microseconds (paper: 6.95 ms / 1000 walls).
    pub per_wall_cost_us: f64,
    /// Radius within which walls count as visible for the cost model.
    /// The default makes 100 000 walls ≈ 1 000 visible, the paper's own
    /// average.
    pub wall_visibility: f64,
    /// If set, every move costs exactly this many microseconds, ignoring
    /// walls — the Figure 7 complexity sweep.
    pub cost_override_us: Option<u64>,
}

impl Default for ManhattanConfig {
    fn default() -> Self {
        Self {
            width: 1000.0,
            height: 1000.0,
            walls: 100_000,
            wall_len: 10.0,
            clients: 64,
            move_effect_range: 10.0,
            visibility: 30.0,
            speed: 10.0,
            move_ms: 300,
            collision_sep: 1.0,
            spawn: SpawnPattern::Clustered {
                cluster_size: 8,
                cluster_radius: 14.0,
            },
            seed: 0x5E4E_2009, // arbitrary fixed default
            base_cost_us: 490,
            per_wall_cost_us: 6.95,
            // π r² / area × walls = 1000 at walls = 100 000, area = 10⁶:
            // r = sqrt(10⁴/π) ≈ 56.42.
            wall_visibility: 56.42,
            cost_override_us: None,
        }
    }
}

/// The immutable environment shared by every replica: terrain + config.
#[derive(Debug)]
pub struct ManhattanEnv {
    /// The wall set.
    pub terrain: Terrain,
    /// The generating configuration.
    pub config: ManhattanConfig,
}

/// One avatar move: advance along the heading for one move period,
/// turning 90° on collision with a wall or a read-set avatar.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MoveAction {
    id: ActionId,
    /// Issuer's believed position at creation — the influence center `p̄_A`.
    pub claimed_pos: Vec2,
    /// Issuer's believed heading at creation — gives the influence velocity.
    pub claimed_dir: Vec2,
    rs: ObjectSet,
    ws: ObjectSet,
    /// Effect radius `r_A` (copied from config at creation).
    radius: f64,
    /// Avatar speed in units/second.
    speed: f64,
    /// Move duration in milliseconds.
    dt_ms: u64,
    /// Collision separation against other avatars.
    collision_sep: f64,
}

impl MoveAction {
    /// Number of integration substeps per move. Collision is checked per
    /// substep so avatars cannot tunnel through walls.
    const SUBSTEPS: u32 = 3;
}

impl Action for MoveAction {
    type Env = ManhattanEnv;

    fn id(&self) -> ActionId {
        self.id
    }

    fn read_set(&self) -> &ObjectSet {
        &self.rs
    }

    fn write_set(&self) -> &ObjectSet {
        &self.ws
    }

    fn influence(&self) -> Influence {
        Influence::sphere(self.claimed_pos, self.radius)
            .with_velocity(self.claimed_dir * self.speed)
    }

    fn evaluate(&self, env: &Self::Env, state: &WorldState) -> Outcome {
        let me = ObjectId(u32::from(self.id.client.0));
        let Some(avatar) = state.get(me) else {
            // Our avatar is not materialized here: fatal conflict, no-op.
            return Outcome::abort();
        };
        let Some(mut pos) = avatar.get(POS).and_then(|v| v.as_vec2()) else {
            return Outcome::abort();
        };
        let mut dir = avatar
            .get(DIR)
            .and_then(|v| v.as_vec2())
            .unwrap_or(Vec2::new(1.0, 0.0));
        let mut bumps = avatar.get(BUMPS).and_then(|v| v.as_i64()).unwrap_or(0);

        let bounds = env.terrain.bounds();
        let step_len = self.speed * (self.dt_ms as f64 / 1000.0) / f64::from(Self::SUBSTEPS);

        for _ in 0..Self::SUBSTEPS {
            // The paper's move evaluation "made heavy use of trigonometric
            // functions": steer by angle, as a Second Life-like engine would.
            let heading = dir.angle();
            let next = pos + Vec2::from_angle(heading) * step_len;

            let wall_hit = !bounds.contains(next) || env.terrain.path_blocked(pos, next);
            let avatar_hit = !wall_hit
                && self.rs.iter().any(|other| {
                    other != me
                        && state
                            .attr(other, POS)
                            .and_then(|v| v.as_vec2())
                            .is_some_and(|p| {
                                p.dist2(next) < self.collision_sep * self.collision_sep
                            })
                });

            if wall_hit || avatar_hit {
                // Bump: turn 90° counter-clockwise and stop this substep.
                dir = dir.rot90();
                bumps += 1;
            } else {
                pos = next;
            }
        }

        let mut writes = WriteLog::new();
        writes.push(me, POS, pos.into());
        writes.push(me, DIR, dir.into());
        writes.push(me, BUMPS, bumps.into());
        Outcome::ok(writes)
    }
}

/// The Manhattan People world.
pub struct ManhattanWorld {
    env: Arc<ManhattanEnv>,
    initial: WorldState,
}

impl ManhattanWorld {
    /// Build the world: generate terrain and spawn avatars.
    pub fn new(config: ManhattanConfig) -> Self {
        let bounds = Aabb::from_size(config.width, config.height);
        let terrain = Terrain::manhattan(bounds, config.walls, config.wall_len, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let mut initial = WorldState::new();
        let spawns = Self::spawn_positions(&config, bounds, &mut rng);
        for (i, pos) in spawns.into_iter().enumerate() {
            let id = ObjectId(i as u32);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            initial.set_attr(id, POS, pos.into());
            initial.set_attr(id, DIR, Vec2::from_angle(angle).into());
            initial.set_attr(id, BUMPS, 0i64.into());
        }
        Self {
            env: Arc::new(ManhattanEnv { terrain, config }),
            initial,
        }
    }

    fn spawn_positions(config: &ManhattanConfig, bounds: Aabb, rng: &mut StdRng) -> Vec<Vec2> {
        let n = config.clients;
        match config.spawn {
            SpawnPattern::Uniform => (0..n)
                .map(|_| {
                    Vec2::new(
                        rng.gen_range(bounds.min.x..bounds.max.x),
                        rng.gen_range(bounds.min.y..bounds.max.y),
                    )
                })
                .collect(),
            SpawnPattern::Clustered {
                cluster_size,
                cluster_radius,
            } => {
                let mut out = Vec::with_capacity(n);
                let margin = cluster_radius + 1.0;
                while out.len() < n {
                    let center = Vec2::new(
                        rng.gen_range(bounds.min.x + margin..bounds.max.x - margin),
                        rng.gen_range(bounds.min.y + margin..bounds.max.y - margin),
                    );
                    for _ in 0..cluster_size.max(1) {
                        if out.len() == n {
                            break;
                        }
                        let a = rng.gen_range(0.0..std::f64::consts::TAU);
                        let r = cluster_radius * rng.gen_range(0.0f64..1.0).sqrt();
                        out.push(bounds.clamp(center + Vec2::from_angle(a) * r));
                    }
                }
                out
            }
            SpawnPattern::Grid { spacing } => {
                // A compact square block (the Figure 8 / Table II crowd),
                // capped by how many columns physically fit in the world.
                let fit = ((bounds.width() / spacing).floor() as usize).max(1);
                let cols = ((n as f64).sqrt().ceil() as usize).clamp(1, fit);
                (0..n)
                    .map(|i| {
                        let cx = (i % cols) as f64;
                        let cy = (i / cols) as f64;
                        bounds.clamp(
                            bounds.min + Vec2::new(spacing * (cx + 0.5), spacing * (cy + 0.5)),
                        )
                    })
                    .collect()
            }
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &ManhattanConfig {
        &self.env.config
    }

    /// Average number of *other* avatars within `radius` of each avatar in
    /// `state` — the "avatars visible" statistic of Figures 6 and 8.
    pub fn avg_visible(&self, state: &WorldState, radius: f64) -> f64 {
        let n = self.env.config.clients;
        if n == 0 {
            return 0.0;
        }
        let positions: Vec<Vec2> = (0..n)
            .filter_map(|i| {
                state
                    .attr(ObjectId(i as u32), POS)
                    .and_then(|v| v.as_vec2())
            })
            .collect();
        let r2 = radius * radius;
        let mut total = 0usize;
        for (i, &p) in positions.iter().enumerate() {
            for (j, &q) in positions.iter().enumerate() {
                if i != j && p.dist2(q) <= r2 {
                    total += 1;
                }
            }
        }
        total as f64 / positions.len() as f64
    }
}

impl GameWorld for ManhattanWorld {
    type Env = ManhattanEnv;
    type Action = MoveAction;

    fn env(&self) -> &Arc<ManhattanEnv> {
        &self.env
    }

    fn initial_state(&self) -> WorldState {
        self.initial.clone()
    }

    fn semantics(&self) -> Semantics {
        let c = &self.env.config;
        // r_C is the avatar visibility: the sphere a client's *next* action
        // can be influenced from, which is how the paper's implementation
        // scopes per-client interest (the Figure 8 sweep varies exactly
        // this radius).
        Semantics::new(
            c.width,
            c.height,
            c.speed,
            c.move_effect_range,
            c.visibility,
        )
    }

    fn num_clients(&self) -> usize {
        self.env.config.clients
    }

    fn avatar_object(&self, client: ClientId) -> ObjectId {
        ObjectId(u32::from(client.0))
    }

    fn position_in(&self, state: &WorldState, object: ObjectId) -> Option<Vec2> {
        state.attr(object, POS).and_then(|v| v.as_vec2())
    }

    fn eval_cost_micros(&self, action: &MoveAction) -> u64 {
        let c = &self.env.config;
        if let Some(fixed) = c.cost_override_us {
            return fixed;
        }
        let visible = self
            .env
            .terrain
            .walls_within(action.claimed_pos, c.wall_visibility);
        c.base_cost_us + (c.per_wall_cost_us * visible as f64) as u64
    }
}

/// The Manhattan People traffic model: each client submits one move per
/// move period, reading its own avatar and the neighbours within the move
/// effect range out of its optimistic view.
///
/// Like any real client engine, the workload despawns entities that have
/// stopped updating: an avatar whose believed position has not changed for
/// several rounds has left the client's interest sphere, and its frozen
/// coordinates must not produce phantom read-set entries (every live
/// avatar moves every round, so "unchanged" reliably means "stale").
pub struct ManhattanWorkload {
    env: Arc<ManhattanEnv>,
    /// `freshness[observer][observed]`: the position `observer` last saw
    /// `observed` at and how many consecutive observations it has been
    /// frozen there; `None` until the first sighting. A row is allocated
    /// (one slot per avatar) the first time its observer moves, so a
    /// workload driving one client holds one row, not N.
    freshness: Vec<Vec<Option<(Vec2, u32)>>>,
}

/// Consecutive frozen re-observations after which a remote avatar counts
/// as stale (i.e. stale on the third identical sighting).
const STALE_ROUNDS: u32 = 2;

impl ManhattanWorkload {
    /// A workload over the given world.
    pub fn new(world: &ManhattanWorld) -> Self {
        Self {
            env: Arc::clone(world.env()),
            freshness: Vec::new(),
        }
    }

    /// Build the move a client would submit from view `view`. Exposed for
    /// tests and for baselines that need raw actions.
    pub fn make_move(
        &mut self,
        client: ClientId,
        seq: u32,
        view: &WorldState,
    ) -> Option<MoveAction> {
        let c = &self.env.config;
        let me = ObjectId(u32::from(client.0));
        let pos = view.attr(me, POS)?.as_vec2()?;
        let dir = view.attr(me, DIR)?.as_vec2()?;

        let observer = usize::from(client.0);
        if self.freshness.len() <= observer {
            self.freshness.resize_with(observer + 1, Vec::new);
        }
        let row = &mut self.freshness[observer];
        if row.is_empty() {
            row.resize(c.clients, None);
        }

        // Read set: me + every *live* avatar currently within the move
        // effect range of my believed position. The declared read set is
        // what the server's closure analysis (Algorithm 6) operates on.
        // Avatars are objects `0..clients`, and the view iterates in
        // ascending id, so one pass over its prefix visits them in id order.
        let mut rs = ObjectSet::singleton(me);
        let r2 = c.move_effect_range * c.move_effect_range;
        for (other, object) in view.iter() {
            let Some(seen) = row.get_mut(other.0 as usize) else {
                break; // past the avatars
            };
            if other == me {
                continue;
            }
            let Some(p) = object.get(POS).and_then(|v| v.as_vec2()) else {
                continue;
            };
            let frozen_rounds = match seen {
                Some((last, frozen)) if *last == p => {
                    *frozen += 1;
                    *frozen
                }
                _ => {
                    *seen = Some((p, 0));
                    0
                }
            };
            let stale = frozen_rounds >= STALE_ROUNDS;
            if !stale && p.dist2(pos) <= r2 {
                rs.insert(other);
            }
        }

        Some(MoveAction {
            id: ActionId::new(client, seq),
            claimed_pos: pos,
            claimed_dir: dir,
            rs,
            ws: ObjectSet::singleton(me),
            radius: c.move_effect_range,
            speed: c.speed,
            dt_ms: c.move_ms,
            collision_sep: c.collision_sep,
        })
    }
}

impl Workload<ManhattanWorld> for ManhattanWorkload {
    fn next_action(
        &mut self,
        client: ClientId,
        seq: u32,
        view: &WorldState,
        _now_ms: u64,
    ) -> Option<MoveAction> {
        self.make_move(client, seq, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::WorldObject;

    fn small_world() -> ManhattanWorld {
        ManhattanWorld::new(ManhattanConfig {
            width: 100.0,
            height: 100.0,
            walls: 50,
            clients: 4,
            spawn: SpawnPattern::Uniform,
            seed: 7,
            ..ManhattanConfig::default()
        })
    }

    #[test]
    fn initial_state_has_all_avatars() {
        let w = small_world();
        let s = w.initial_state();
        assert_eq!(s.len(), 4);
        for i in 0..4u32 {
            let pos = s.attr(ObjectId(i), POS).unwrap().as_vec2().unwrap();
            assert!(w.env().terrain.bounds().contains(pos));
            let dir = s.attr(ObjectId(i), DIR).unwrap().as_vec2().unwrap();
            assert!((dir.len() - 1.0).abs() < 1e-9, "heading is a unit vector");
        }
    }

    #[test]
    fn world_construction_is_deterministic() {
        let a = small_world().initial_state();
        let b = small_world().initial_state();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn move_evaluation_is_pure_and_deterministic() {
        let w = small_world();
        let mut wl = ManhattanWorkload::new(&w);
        let s = w.initial_state();
        let a = wl.make_move(ClientId(0), 0, &s).unwrap();
        let o1 = a.evaluate(w.env(), &s);
        let o2 = a.evaluate(w.env(), &s);
        assert_eq!(o1, o2);
        assert!(!o1.aborted);
        assert_eq!(o1.writes.len(), 3, "pos, dir, bumps");
        // State was not mutated by evaluation.
        assert_eq!(s.digest(), w.initial_state().digest());
    }

    #[test]
    fn move_advances_position_in_open_space() {
        let w = ManhattanWorld::new(ManhattanConfig {
            width: 1000.0,
            height: 1000.0,
            walls: 0,
            clients: 1,
            spawn: SpawnPattern::Grid { spacing: 500.0 },
            seed: 3,
            ..ManhattanConfig::default()
        });
        let mut wl = ManhattanWorkload::new(&w);
        let s = w.initial_state();
        let before = s.attr(ObjectId(0), POS).unwrap().as_vec2().unwrap();
        let a = wl.make_move(ClientId(0), 0, &s).unwrap();
        let o = a.evaluate(w.env(), &s);
        let mut s2 = s.clone();
        s2.apply_writes(&o.writes);
        let after = s2.attr(ObjectId(0), POS).unwrap().as_vec2().unwrap();
        let expected = w.config().speed * w.config().move_ms as f64 / 1000.0;
        assert!((before.dist(after) - expected).abs() < 1e-6);
    }

    #[test]
    fn wall_collision_turns_ninety_degrees() {
        use crate::geometry::Segment;
        // A private world with a single wall dead ahead.
        let bounds = Aabb::from_size(100.0, 100.0);
        let terrain = Terrain::from_walls(
            bounds,
            vec![Segment::new(Vec2::new(52.0, 40.0), Vec2::new(52.0, 60.0))],
        );
        let config = ManhattanConfig {
            width: 100.0,
            height: 100.0,
            clients: 1,
            ..ManhattanConfig::default()
        };
        let env = ManhattanEnv { terrain, config };
        let mut s = WorldState::new();
        s.set_attr(ObjectId(0), POS, Vec2::new(51.5, 50.0).into());
        s.set_attr(ObjectId(0), DIR, Vec2::new(1.0, 0.0).into());
        s.set_attr(ObjectId(0), BUMPS, 0i64.into());
        let a = MoveAction {
            id: ActionId::new(ClientId(0), 0),
            claimed_pos: Vec2::new(51.5, 50.0),
            claimed_dir: Vec2::new(1.0, 0.0),
            rs: ObjectSet::singleton(ObjectId(0)),
            ws: ObjectSet::singleton(ObjectId(0)),
            radius: 10.0,
            speed: 10.0,
            dt_ms: 300,
            collision_sep: 1.0,
        };
        let o = a.evaluate(&env, &s);
        let mut s2 = s.clone();
        s2.apply_writes(&o.writes);
        let bumps = s2.attr(ObjectId(0), BUMPS).unwrap().as_i64().unwrap();
        assert!(bumps >= 1, "must have bumped");
        let dir = s2.attr(ObjectId(0), DIR).unwrap().as_vec2().unwrap();
        assert!(dir != Vec2::new(1.0, 0.0), "heading changed");
    }

    #[test]
    fn avatar_collision_counts_as_bump() {
        let config = ManhattanConfig {
            width: 100.0,
            height: 100.0,
            walls: 0,
            clients: 2,
            ..ManhattanConfig::default()
        };
        let env = ManhattanEnv {
            terrain: Terrain::empty(Aabb::from_size(100.0, 100.0)),
            config,
        };
        let mut s = WorldState::new();
        s.set_attr(ObjectId(0), POS, Vec2::new(50.0, 50.0).into());
        s.set_attr(ObjectId(0), DIR, Vec2::new(1.0, 0.0).into());
        s.set_attr(ObjectId(0), BUMPS, 0i64.into());
        // The other avatar sits right in the path.
        s.set_attr(ObjectId(1), POS, Vec2::new(51.0, 50.0).into());
        let a = MoveAction {
            id: ActionId::new(ClientId(0), 0),
            claimed_pos: Vec2::new(50.0, 50.0),
            claimed_dir: Vec2::new(1.0, 0.0),
            rs: [ObjectId(0), ObjectId(1)].into_iter().collect(),
            ws: ObjectSet::singleton(ObjectId(0)),
            radius: 10.0,
            speed: 10.0,
            dt_ms: 300,
            collision_sep: 1.0,
        };
        let o = a.evaluate(&env, &s);
        let mut s2 = s.clone();
        s2.apply_writes(&o.writes);
        assert!(s2.attr(ObjectId(0), BUMPS).unwrap().as_i64().unwrap() >= 1);
    }

    #[test]
    fn missing_avatar_aborts() {
        let w = small_world();
        let mut wl = ManhattanWorkload::new(&w);
        let s = w.initial_state();
        let a = wl.make_move(ClientId(0), 0, &s).unwrap();
        let empty = WorldState::new();
        assert!(a.evaluate(w.env(), &empty).aborted);
    }

    #[test]
    fn read_set_includes_nearby_avatars_only() {
        let config = ManhattanConfig {
            width: 1000.0,
            height: 1000.0,
            walls: 0,
            clients: 3,
            move_effect_range: 10.0,
            ..ManhattanConfig::default()
        };
        let w = ManhattanWorld::new(config);
        let mut wl = ManhattanWorkload::new(&w);
        let mut s = WorldState::new();
        s.set_attr(ObjectId(0), POS, Vec2::new(100.0, 100.0).into());
        s.set_attr(ObjectId(0), DIR, Vec2::new(1.0, 0.0).into());
        s.set_attr(ObjectId(1), POS, Vec2::new(105.0, 100.0).into()); // in range
        s.set_attr(ObjectId(2), POS, Vec2::new(200.0, 100.0).into()); // out of range
        let a = wl.make_move(ClientId(0), 0, &s).unwrap();
        assert!(a.read_set().contains(ObjectId(0)));
        assert!(a.read_set().contains(ObjectId(1)));
        assert!(!a.read_set().contains(ObjectId(2)));
        assert_eq!(a.write_set().as_slice(), &[ObjectId(0)]);
    }

    #[test]
    fn cost_model_scales_with_walls_and_override_wins() {
        let dense = ManhattanWorld::new(ManhattanConfig {
            walls: 100_000,
            clients: 1,
            spawn: SpawnPattern::Grid { spacing: 500.0 },
            seed: 11,
            ..ManhattanConfig::default()
        });
        let mut wl = ManhattanWorkload::new(&dense);
        let s = dense.initial_state();
        let a = wl.make_move(ClientId(0), 0, &s).unwrap();
        let cost = dense.eval_cost_micros(&a);
        // Paper: ≈7.44 ms per move at 100k walls. Allow generous slack for
        // spawn-point wall-density variation.
        assert!(
            (4_000..12_000).contains(&cost),
            "cost {cost}µs should be near the paper's 7440µs"
        );

        let fixed = ManhattanWorld::new(ManhattanConfig {
            cost_override_us: Some(25_000),
            clients: 1,
            ..ManhattanConfig::default()
        });
        let a2 = ManhattanWorkload::new(&fixed)
            .make_move(ClientId(0), 0, &fixed.initial_state())
            .unwrap();
        assert_eq!(fixed.eval_cost_micros(&a2), 25_000);
    }

    #[test]
    fn grid_spawn_spacing_and_density_stat() {
        let w = ManhattanWorld::new(ManhattanConfig {
            width: 250.0,
            height: 250.0,
            walls: 0,
            clients: 60,
            spawn: SpawnPattern::Grid { spacing: 4.0 },
            ..ManhattanConfig::default()
        });
        let s = w.initial_state();
        let p0 = s.attr(ObjectId(0), POS).unwrap().as_vec2().unwrap();
        let p1 = s.attr(ObjectId(1), POS).unwrap().as_vec2().unwrap();
        assert!((p0.dist(p1) - 4.0).abs() < 1e-9);
        // Dense pack: every avatar sees many others at visibility 20.
        assert!(w.avg_visible(&s, 20.0) > 10.0);
        // And almost nobody at visibility 1.
        assert!(w.avg_visible(&s, 1.0) < 1.0);
    }

    #[test]
    fn clustered_spawn_yields_paperlike_density() {
        let w = ManhattanWorld::new(ManhattanConfig {
            clients: 64,
            walls: 0,
            seed: 21,
            ..ManhattanConfig::default()
        });
        let v = w.avg_visible(&w.initial_state(), 30.0);
        // Paper's empirical figure was 6.87 on average; spawning targets
        // that neighbourhood.
        assert!((4.0..10.0).contains(&v), "avg visible {v} should be ≈7");
    }

    #[test]
    fn stale_remote_avatars_despawn_from_read_sets() {
        // An avatar whose believed position never changes is stale (live
        // avatars move every round); after STALE_ROUNDS it must leave the
        // read set even though its frozen position is within range.
        let config = ManhattanConfig {
            width: 1000.0,
            height: 1000.0,
            walls: 0,
            clients: 2,
            move_effect_range: 10.0,
            ..ManhattanConfig::default()
        };
        let w = ManhattanWorld::new(config);
        let mut wl = ManhattanWorkload::new(&w);
        let mut view = WorldState::new();
        view.set_attr(ObjectId(0), POS, Vec2::new(100.0, 100.0).into());
        view.set_attr(ObjectId(0), DIR, Vec2::new(1.0, 0.0).into());
        view.set_attr(ObjectId(1), POS, Vec2::new(105.0, 100.0).into());
        // Rounds 0 and 1: the frozen neighbour still counts as live.
        for seq in 0..2 {
            let a = wl.make_move(ClientId(0), seq, &view).unwrap();
            assert!(a.read_set().contains(ObjectId(1)), "round {seq}");
        }
        // Third identical sighting → despawned.
        let a = wl.make_move(ClientId(0), 2, &view).unwrap();
        assert!(!a.read_set().contains(ObjectId(1)), "stale avatar dropped");
        // The neighbour moves again: immediately live again.
        view.set_attr(ObjectId(1), POS, Vec2::new(104.0, 100.0).into());
        let a = wl.make_move(ClientId(0), 3, &view).unwrap();
        assert!(a.read_set().contains(ObjectId(1)), "fresh data revives it");
    }

    /// Reference generator, written the obvious way: one map keyed by
    /// (observer, observed) and one `view.attr` lookup per avatar id. The
    /// shipping `make_move` must match it action for action.
    struct KeyedMapReference {
        env: Arc<ManhattanEnv>,
        freshness: std::collections::HashMap<(u16, u32), (Vec2, u32)>,
    }

    impl KeyedMapReference {
        fn make_move(
            &mut self,
            client: ClientId,
            seq: u32,
            view: &WorldState,
        ) -> Option<MoveAction> {
            let c = &self.env.config;
            let me = ObjectId(u32::from(client.0));
            let pos = view.attr(me, POS)?.as_vec2()?;
            let dir = view.attr(me, DIR)?.as_vec2()?;

            let mut rs = ObjectSet::singleton(me);
            let r2 = c.move_effect_range * c.move_effect_range;
            for i in 0..c.clients {
                let other = ObjectId(i as u32);
                if other == me {
                    continue;
                }
                if let Some(p) = view.attr(other, POS).and_then(|v| v.as_vec2()) {
                    let frozen_rounds = match self.freshness.entry((client.0, other.0)) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            let v = e.get_mut();
                            if v.0 == p {
                                v.1 += 1;
                            } else {
                                *v = (p, 0);
                            }
                            v.1
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert((p, 0));
                            0
                        }
                    };
                    let stale = frozen_rounds >= STALE_ROUNDS;
                    if !stale && p.dist2(pos) <= r2 {
                        rs.insert(other);
                    }
                }
            }

            Some(MoveAction {
                id: ActionId::new(client, seq),
                claimed_pos: pos,
                claimed_dir: dir,
                rs,
                ws: ObjectSet::singleton(me),
                radius: c.move_effect_range,
                speed: c.speed,
                dt_ms: c.move_ms,
                collision_sep: c.collision_sep,
            })
        }
    }

    #[test]
    fn make_move_matches_the_keyed_map_reference() {
        const CLIENTS: u32 = 12;
        const ROUNDS: u32 = 300;
        let w = ManhattanWorld::new(ManhattanConfig {
            width: 40.0,
            height: 40.0,
            walls: 0,
            clients: CLIENTS as usize,
            spawn: SpawnPattern::Uniform,
            seed: 41,
            ..ManhattanConfig::default()
        });
        let mut shipping = ManhattanWorkload::new(&w);
        let mut reference = KeyedMapReference {
            env: Arc::clone(w.env()),
            freshness: std::collections::HashMap::new(),
        };
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let spot = |rng: &mut StdRng| Vec2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0));

        // Each observer has its own view, with props that are not avatars:
        // their ids are past the avatars', so they never enter a read set
        // however close they stand.
        let observers = [ClientId(0), ClientId(5), ClientId(11), ClientId(6)];
        let mut views: Vec<WorldState> = observers.iter().map(|_| w.initial_state()).collect();
        for view in &mut views {
            view.set_attr(ObjectId(CLIENTS), POS, Vec2::new(20.0, 20.0).into());
            view.set_attr(ObjectId(CLIENTS + 7), POS, Vec2::new(21.0, 20.0).into());
        }
        // Rounds each (observer, avatar) still holds its current condition.
        let mut hold = vec![[0u32; CLIENTS as usize]; observers.len()];

        let (mut neighbours, mut frozen_drops, mut absences) = (0usize, 0usize, 0usize);
        for round in 0..ROUNDS {
            // Interleave the observers in a different order every round.
            let mut order: Vec<usize> = (0..observers.len()).collect();
            order.rotate_left(round as usize % observers.len());
            if rng.gen_bool(0.5) {
                order.swap(0, 2);
            }
            for o in order {
                let (client, view) = (observers[o], &mut views[o]);
                for j in 0..CLIENTS {
                    let avatar = ObjectId(j);
                    if j == u32::from(client.0) {
                        view.set_attr(avatar, POS, spot(&mut rng).into());
                        continue;
                    }
                    if hold[o][j as usize] > 0 {
                        hold[o][j as usize] -= 1;
                        continue;
                    }
                    match rng.gen_range(0u32..10) {
                        // Moves (or reappears, perhaps where it was).
                        0..=4 => view.set_attr(avatar, POS, spot(&mut rng).into()),
                        // Freezes where it is for 1–4 rounds.
                        5..=6 => hold[o][j as usize] = rng.gen_range(1u32..5),
                        // Leaves the view for 1–4 rounds.
                        7..=8 => {
                            view.remove(avatar);
                            hold[o][j as usize] = rng.gen_range(1u32..5);
                            absences += 1;
                        }
                        // Present but without a position.
                        _ => view.put(avatar, WorldObject::from_attrs([(BUMPS, 3i64.into())])),
                    }
                }

                let got = shipping.make_move(client, round, view).unwrap();
                let want = reference.make_move(client, round, view).unwrap();
                assert_eq!(
                    got.rs.as_slice(),
                    want.rs.as_slice(),
                    "round {round} {client:?}"
                );
                assert_eq!(got.claimed_pos, want.claimed_pos);
                assert_eq!(got.claimed_dir, want.claimed_dir);
                assert!(got.rs.iter().all(|id| id.0 < CLIENTS), "props stay out");

                neighbours += got.rs.len() - 1;
                let in_range = (0..CLIENTS)
                    .filter(|&j| j != u32::from(client.0))
                    .filter_map(|j| view.attr(ObjectId(j), POS)?.as_vec2())
                    .filter(|p| p.dist2(got.claimed_pos) <= got.radius * got.radius)
                    .count();
                frozen_drops += in_range - (got.rs.len() - 1);
            }
        }
        // The loop reached every case it is meant to compare.
        assert!(neighbours > 500, "neighbours in range: {neighbours}");
        assert!(frozen_drops > 20, "stale avatars dropped: {frozen_drops}");
        assert!(absences > 100, "absences: {absences}");
    }

    #[test]
    fn influence_carries_velocity_for_area_culling() {
        let w = small_world();
        let mut wl = ManhattanWorkload::new(&w);
        let s = w.initial_state();
        let a = wl.make_move(ClientId(1), 0, &s).unwrap();
        let inf = a.influence();
        assert_eq!(inf.radius, w.config().move_effect_range);
        let v = inf.velocity.expect("moves declare a velocity");
        assert!((v.len() - w.config().speed).abs() < 1e-9);
    }
}
