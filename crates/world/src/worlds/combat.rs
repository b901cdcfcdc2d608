//! A fantasy combat world: arrows, healing, and the scrying spell.
//!
//! This world exists for the paper's motivating examples:
//!
//! * **The scrying spell** (Sections I and III-B): "a classic feature for
//!   such a game is a 'scrying spell' that allows a healer to identify and
//!   heal the most wounded ally in a crowd. During combat, the result of
//!   this spell transaction interacts with all the other users, as the
//!   health of each player is continually changing. The range and nature of
//!   such a spell makes character-visibility partitioning useless."
//! * **The arrow causality chain** (Figure 3): C shoots B while B shoots A;
//!   whether A dies depends on whether B was already dead — a transitive
//!   dependency that visibility filtering (RING) silently violates.
//! * **Interest classes** (Section IV-A): some participants are *insects*
//!   whose ambient movements human players need not track consistently.

use crate::action::{Action, GameWorld, Influence, Outcome};
use crate::geometry::{Aabb, Vec2};
use crate::ids::{ActionId, AttrId, ClientId, ObjectId};
use crate::objset::ObjectSet;
use crate::semantics::{InterestClass, InterestMask, Semantics};
use crate::state::{WorldState, WriteLog};
use crate::worlds::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Attribute: position ([`crate::value::Value::Vec2`]).
pub const POS: AttrId = AttrId(0);
/// Attribute: hit points ([`crate::value::Value::I64`]).
pub const HP: AttrId = AttrId(1);
/// Attribute: team number ([`crate::value::Value::I64`]).
pub const TEAM: AttrId = AttrId(2);

/// Interest class of ordinary movement and combat actions.
pub const CLASS_COMBAT: InterestClass = InterestClass(0);
/// Interest class of ambient (insect) actions — humans need not track them.
pub const CLASS_AMBIENT: InterestClass = InterestClass(1);

/// Configuration of the combat world.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CombatConfig {
    /// World width.
    pub width: f64,
    /// World height.
    pub height: f64,
    /// Number of clients (avatars).
    pub clients: usize,
    /// Starting (and maximum) hit points.
    pub max_hp: i64,
    /// Arrow range, world units.
    pub arrow_range: f64,
    /// Arrow damage per hit.
    pub arrow_damage: i64,
    /// Arrow flight speed, units/second (drives area culling, Section IV-B).
    pub arrow_speed: f64,
    /// Scrying-spell range — deliberately large: the whole point is that it
    /// exceeds any visibility radius.
    pub scry_range: f64,
    /// Hit points restored by a scry heal.
    pub scry_heal: i64,
    /// Movement speed, units/second.
    pub speed: f64,
    /// Move duration, milliseconds.
    pub move_ms: u64,
    /// Fraction (0..=1) of clients that are ambient "insects" whose moves
    /// carry [`CLASS_AMBIENT`]. Humans are not interested in that class.
    pub insect_fraction: f64,
    /// Explicit spawn positions (x, y) per client; random when `None`.
    /// Lets tests script exact scenarios like the Figure 3 causality chain.
    pub spawn_positions: Option<Vec<(f64, f64)>>,
    /// Spawn / workload seed.
    pub seed: u64,
    /// Fixed evaluation cost per action, microseconds.
    pub action_cost_us: u64,
}

impl Default for CombatConfig {
    fn default() -> Self {
        Self {
            width: 400.0,
            height: 400.0,
            clients: 32,
            max_hp: 100,
            arrow_range: 40.0,
            arrow_damage: 25,
            arrow_speed: 80.0,
            scry_range: 150.0,
            scry_heal: 30,
            speed: 8.0,
            move_ms: 300,
            insect_fraction: 0.0,
            spawn_positions: None,
            seed: 0xC0B7,
            action_cost_us: 1_000,
        }
    }
}

/// Immutable environment for the combat world.
#[derive(Debug)]
pub struct CombatEnv {
    /// The configuration.
    pub config: CombatConfig,
}

/// Combat-world actions.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum CombatAction {
    /// Walk in a direction for one move period.
    Move {
        /// Action identity.
        id: ActionId,
        /// Direction of travel (unit vector).
        dir: Vec2,
        /// Believed position at creation, for influence.
        claimed_pos: Vec2,
        /// Declared read set (self).
        rs: ObjectSet,
        /// Declared write set (self).
        ws: ObjectSet,
        /// Interest class ([`CLASS_COMBAT`] or [`CLASS_AMBIENT`]).
        class: InterestClass,
        /// Speed × duration, i.e. distance walked.
        step: f64,
    },
    /// Shoot an arrow at a specific target.
    Shoot {
        /// Action identity.
        id: ActionId,
        /// The victim.
        target: ObjectId,
        /// Believed position at creation.
        claimed_pos: Vec2,
        /// Believed target position, giving the arrow's direction.
        target_pos: Vec2,
        /// Arrow flight speed (for the culling prediction).
        speed: f64,
        /// Declared read set (self + target).
        rs: ObjectSet,
        /// Declared write set (target).
        ws: ObjectSet,
    },
    /// Scry: heal the most wounded living ally within range.
    ///
    /// The write set is the full set of candidate allies — which ally
    /// receives the heal depends on every candidate's current health, which
    /// is precisely why visibility partitioning cannot support this action.
    Scry {
        /// Action identity.
        id: ActionId,
        /// Believed position at creation.
        claimed_pos: Vec2,
        /// Declared read set (self + candidate allies).
        rs: ObjectSet,
        /// Declared write set (candidate allies).
        ws: ObjectSet,
        /// Healing amount.
        heal: i64,
        /// Spell range, for influence.
        range: f64,
    },
}

impl Action for CombatAction {
    type Env = CombatEnv;

    fn id(&self) -> ActionId {
        match self {
            CombatAction::Move { id, .. }
            | CombatAction::Shoot { id, .. }
            | CombatAction::Scry { id, .. } => *id,
        }
    }

    fn read_set(&self) -> &ObjectSet {
        match self {
            CombatAction::Move { rs, .. }
            | CombatAction::Shoot { rs, .. }
            | CombatAction::Scry { rs, .. } => rs,
        }
    }

    fn write_set(&self) -> &ObjectSet {
        match self {
            CombatAction::Move { ws, .. }
            | CombatAction::Shoot { ws, .. }
            | CombatAction::Scry { ws, .. } => ws,
        }
    }

    fn influence(&self) -> Influence {
        match self {
            CombatAction::Move {
                claimed_pos,
                step,
                dir,
                class,
                ..
            } => Influence::sphere(*claimed_pos, *step)
                .with_velocity(*dir)
                .with_class(*class),
            CombatAction::Shoot {
                claimed_pos,
                target_pos,
                speed,
                ..
            } => {
                // Area culling (Section IV-B): an arrow's influence travels
                // toward the target rather than radiating in a sphere.
                let v = (*target_pos - *claimed_pos).normalized() * *speed;
                Influence::sphere(*claimed_pos, claimed_pos.dist(*target_pos))
                    .with_velocity(v)
                    .with_class(CLASS_COMBAT)
            }
            CombatAction::Scry {
                claimed_pos, range, ..
            } => Influence::sphere(*claimed_pos, *range).with_class(CLASS_COMBAT),
        }
    }

    fn evaluate(&self, env: &Self::Env, state: &WorldState) -> Outcome {
        let alive = |o: ObjectId| {
            state
                .attr(o, HP)
                .and_then(|v| v.as_i64())
                .is_some_and(|hp| hp > 0)
        };
        match self {
            CombatAction::Move { id, dir, step, .. } => {
                let me = ObjectId(u32::from(id.client.0));
                let Some(pos) = state.attr(me, POS).and_then(|v| v.as_vec2()) else {
                    return Outcome::abort();
                };
                if !alive(me) {
                    return Outcome::abort(); // the dead do not walk
                }
                let bounds = Aabb::from_size(env.config.width, env.config.height);
                let next = bounds.clamp(pos + *dir * *step);
                let mut w = WriteLog::new();
                w.push(me, POS, next.into());
                Outcome::ok(w)
            }
            CombatAction::Shoot { id, target, .. } => {
                let me = ObjectId(u32::from(id.client.0));
                let (Some(my_pos), Some(their_pos)) = (
                    state.attr(me, POS).and_then(|v| v.as_vec2()),
                    state.attr(*target, POS).and_then(|v| v.as_vec2()),
                ) else {
                    return Outcome::abort();
                };
                // A dead archer fires nothing; a dead or out-of-range
                // target is a fatal conflict (the Figure 3 causality rule).
                if !alive(me) || !alive(*target) {
                    return Outcome::abort();
                }
                if my_pos.dist(their_pos) > env.config.arrow_range {
                    return Outcome::abort();
                }
                let hp = state
                    .attr(*target, HP)
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0);
                let mut w = WriteLog::new();
                w.push(*target, HP, (hp - env.config.arrow_damage).max(0).into());
                Outcome::ok(w)
            }
            CombatAction::Scry { id, rs, heal, .. } => {
                let me = ObjectId(u32::from(id.client.0));
                if !alive(me) {
                    return Outcome::abort();
                }
                // Identify the most wounded *living* ally among the read
                // set. Ties break on object id so every replica agrees.
                let mut best: Option<(i64, ObjectId)> = None;
                for o in rs.iter() {
                    if o == me {
                        continue;
                    }
                    if let Some(hp) = state.attr(o, HP).and_then(|v| v.as_i64()) {
                        if hp > 0 && hp < env.config.max_hp {
                            let cand = (hp, o);
                            if best.is_none_or(|b| cand < b) {
                                best = Some(cand);
                            }
                        }
                    }
                }
                match best {
                    Some((hp, o)) => {
                        let mut w = WriteLog::new();
                        w.push(o, HP, (hp + heal).min(env.config.max_hp).into());
                        Outcome::ok(w)
                    }
                    None => Outcome::abort(), // nobody to heal
                }
            }
        }
    }
}

/// The combat world.
pub struct CombatWorld {
    env: Arc<CombatEnv>,
    initial: WorldState,
    insects: Vec<bool>,
}

impl CombatWorld {
    /// Build the world: spawn avatars on two teams, mark insect clients.
    pub fn new(config: CombatConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut initial = WorldState::new();
        let n = config.clients;
        let insect_count = (config.insect_fraction * n as f64).round() as usize;
        let mut insects = vec![false; n];
        for flag in insects.iter_mut().take(insect_count) {
            *flag = true;
        }
        for i in 0..n {
            let id = ObjectId(i as u32);
            let pos = match config.spawn_positions.as_ref().and_then(|v| v.get(i)) {
                Some(&(x, y)) => Vec2::new(x, y),
                None => Vec2::new(
                    rng.gen_range(0.0..config.width),
                    rng.gen_range(0.0..config.height),
                ),
            };
            initial.set_attr(id, POS, pos.into());
            initial.set_attr(id, HP, config.max_hp.into());
            initial.set_attr(id, TEAM, ((i % 2) as i64).into());
        }
        Self {
            env: Arc::new(CombatEnv { config }),
            initial,
            insects,
        }
    }

    /// Is client `c` an ambient "insect" participant?
    pub fn is_insect(&self, c: ClientId) -> bool {
        self.insects.get(c.index()).copied().unwrap_or(false)
    }

    /// Build a shoot action from `archer` at `target`, reading positions
    /// from `view`.
    pub fn shoot(
        &self,
        archer: ClientId,
        seq: u32,
        target: ObjectId,
        view: &WorldState,
    ) -> Option<CombatAction> {
        let me = ObjectId(u32::from(archer.0));
        let my_pos = view.attr(me, POS)?.as_vec2()?;
        let their_pos = view.attr(target, POS)?.as_vec2()?;
        Some(CombatAction::Shoot {
            id: ActionId::new(archer, seq),
            target,
            claimed_pos: my_pos,
            target_pos: their_pos,
            speed: self.env.config.arrow_speed,
            rs: [me, target].into_iter().collect(),
            ws: ObjectSet::singleton(target),
        })
    }

    /// Build a scry action for `healer`: candidates are all living allies
    /// within scry range in `view`.
    pub fn scry(&self, healer: ClientId, seq: u32, view: &WorldState) -> Option<CombatAction> {
        let me = ObjectId(u32::from(healer.0));
        let my_pos = view.attr(me, POS)?.as_vec2()?;
        let my_team = view.attr(me, TEAM)?.as_i64()?;
        let c = &self.env.config;
        let mut rs = ObjectSet::singleton(me);
        let mut ws = ObjectSet::new();
        let r2 = c.scry_range * c.scry_range;
        for i in 0..c.clients {
            let o = ObjectId(i as u32);
            if o == me {
                continue;
            }
            let (Some(p), Some(t)) = (
                view.attr(o, POS).and_then(|v| v.as_vec2()),
                view.attr(o, TEAM).and_then(|v| v.as_i64()),
            ) else {
                continue;
            };
            if t == my_team && p.dist2(my_pos) <= r2 {
                rs.insert(o);
                ws.insert(o);
            }
        }
        if ws.is_empty() {
            return None;
        }
        Some(CombatAction::Scry {
            id: ActionId::new(healer, seq),
            claimed_pos: my_pos,
            rs,
            ws,
            heal: c.scry_heal,
            range: c.scry_range,
        })
    }

    /// Build a move action for `client` in direction `dir`.
    pub fn walk(
        &self,
        client: ClientId,
        seq: u32,
        dir: Vec2,
        view: &WorldState,
    ) -> Option<CombatAction> {
        let me = ObjectId(u32::from(client.0));
        let pos = view.attr(me, POS)?.as_vec2()?;
        let c = &self.env.config;
        let class = if self.is_insect(client) {
            CLASS_AMBIENT
        } else {
            CLASS_COMBAT
        };
        Some(CombatAction::Move {
            id: ActionId::new(client, seq),
            dir: dir.normalized(),
            claimed_pos: pos,
            rs: ObjectSet::singleton(me),
            ws: ObjectSet::singleton(me),
            class,
            step: c.speed * c.move_ms as f64 / 1000.0,
        })
    }
}

impl GameWorld for CombatWorld {
    type Env = CombatEnv;
    type Action = CombatAction;

    fn env(&self) -> &Arc<CombatEnv> {
        &self.env
    }

    fn initial_state(&self) -> WorldState {
        self.initial.clone()
    }

    fn semantics(&self) -> Semantics {
        let c = &self.env.config;
        Semantics::new(c.width, c.height, c.speed, c.scry_range, c.arrow_range)
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

    fn eval_cost_micros(&self, _action: &CombatAction) -> u64 {
        self.env.config.action_cost_us
    }

    fn client_interests(&self, client: ClientId) -> InterestMask {
        if self.is_insect(client) {
            // Insects consistently track everything (including each other).
            InterestMask::ALL
        } else {
            // Humans do not need to reliably know the locations of insects
            // (Section IV-A).
            InterestMask::of(&[CLASS_COMBAT])
        }
    }
}

/// Workload: avatars wander; periodically the nearest enemy in view is shot;
/// every few rounds a healer scries. Deterministic in the config seed.
pub struct CombatWorkload {
    env: Arc<CombatEnv>,
    world: Arc<CombatWorld>,
    rngs: Vec<StdRng>,
}

impl CombatWorkload {
    /// A workload over the given world (shared through an `Arc` because the
    /// workload needs the action constructors).
    pub fn new(world: Arc<CombatWorld>) -> Self {
        let n = world.num_clients();
        let seed = world.env().config.seed;
        Self {
            env: Arc::clone(world.env()),
            rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(seed ^ (0x9E37 + i as u64 * 0x51_7CC1)))
                .collect(),
            world,
        }
    }

    fn nearest_enemy(&self, me: ObjectId, view: &WorldState) -> Option<ObjectId> {
        let my_pos = view.attr(me, POS)?.as_vec2()?;
        let my_team = view.attr(me, TEAM)?.as_i64()?;
        let mut best: Option<(f64, ObjectId)> = None;
        // Avatars are objects `0..clients` and the view iterates in ascending
        // id: one pass over its prefix, each candidate read once. The strict
        // `<` keeps the lowest id among equally near enemies.
        for (o, object) in view.iter() {
            if o.0 as usize >= self.env.config.clients {
                break;
            }
            if o == me {
                continue;
            }
            let (Some(p), Some(t), Some(hp)) = (
                object.get(POS).and_then(|v| v.as_vec2()),
                object.get(TEAM).and_then(|v| v.as_i64()),
                object.get(HP).and_then(|v| v.as_i64()),
            ) else {
                continue;
            };
            if t != my_team && hp > 0 {
                let d = p.dist2(my_pos);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, o));
                }
            }
        }
        best.map(|(_, o)| o)
    }
}

impl Workload<CombatWorld> for CombatWorkload {
    fn next_action(
        &mut self,
        client: ClientId,
        seq: u32,
        view: &WorldState,
        _now_ms: u64,
    ) -> Option<CombatAction> {
        let me = ObjectId(u32::from(client.0));
        let roll: f64 = self.rngs[client.index()].gen();
        if !self.world.is_insect(client) {
            if roll < 0.15 {
                return self.world.scry(client, seq, view).or_else(|| {
                    let dir = Vec2::from_angle(roll * std::f64::consts::TAU * 6.0);
                    self.world.walk(client, seq, dir, view)
                });
            }
            if roll < 0.45 {
                if let Some(target) = self.nearest_enemy(me, view) {
                    let my_pos = view.attr(me, POS)?.as_vec2()?;
                    let tp = view.attr(target, POS)?.as_vec2()?;
                    if my_pos.dist(tp) <= self.env.config.arrow_range {
                        return self.world.shoot(client, seq, target, view);
                    }
                }
            }
        }
        let dir = Vec2::from_angle(roll * std::f64::consts::TAU * 4.0);
        self.world.walk(client, seq, dir, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> CombatWorld {
        CombatWorld::new(CombatConfig {
            clients: 6,
            seed: 5,
            ..CombatConfig::default()
        })
    }

    #[test]
    fn spawn_teams_and_hp() {
        let w = world();
        let s = w.initial_state();
        assert_eq!(s.len(), 6);
        for i in 0..6u32 {
            assert_eq!(s.attr(ObjectId(i), HP), Some(100i64.into()));
            assert_eq!(s.attr(ObjectId(i), TEAM), Some(((i % 2) as i64).into()));
        }
    }

    #[test]
    fn shoot_damages_target_in_range() {
        let w = world();
        let mut s = w.initial_state();
        // Put archer and target adjacent.
        s.set_attr(ObjectId(0), POS, Vec2::new(10.0, 10.0).into());
        s.set_attr(ObjectId(1), POS, Vec2::new(20.0, 10.0).into());
        let a = w.shoot(ClientId(0), 0, ObjectId(1), &s).unwrap();
        let o = a.evaluate(w.env(), &s);
        assert!(!o.aborted);
        s.apply_writes(&o.writes);
        assert_eq!(s.attr(ObjectId(1), HP), Some(75i64.into()));
    }

    #[test]
    fn shoot_out_of_range_or_dead_aborts() {
        let w = world();
        let mut s = w.initial_state();
        s.set_attr(ObjectId(0), POS, Vec2::new(0.0, 0.0).into());
        s.set_attr(ObjectId(1), POS, Vec2::new(300.0, 300.0).into());
        let far = w.shoot(ClientId(0), 0, ObjectId(1), &s).unwrap();
        assert!(far.evaluate(w.env(), &s).aborted);
        // Dead archer cannot shoot — the Figure 3 causality rule.
        s.set_attr(ObjectId(1), POS, Vec2::new(10.0, 0.0).into());
        s.set_attr(ObjectId(0), HP, 0i64.into());
        let dead = w.shoot(ClientId(0), 1, ObjectId(1), &s).unwrap();
        assert!(dead.evaluate(w.env(), &s).aborted);
    }

    #[test]
    fn scry_heals_most_wounded_ally_deterministically() {
        let w = CombatWorld::new(CombatConfig {
            clients: 6,
            scry_range: 1000.0,
            ..CombatConfig::default()
        });
        let mut s = w.initial_state();
        // Client 0 is team 0; allies are 2 and 4.
        s.set_attr(ObjectId(2), HP, 40i64.into());
        s.set_attr(ObjectId(4), HP, 15i64.into());
        let a = w.scry(ClientId(0), 0, &s).unwrap();
        assert!(a.read_set().contains(ObjectId(2)));
        assert!(a.read_set().contains(ObjectId(4)));
        let o = a.evaluate(w.env(), &s);
        assert!(!o.aborted);
        s.apply_writes(&o.writes);
        assert_eq!(
            s.attr(ObjectId(4), HP),
            Some(45i64.into()),
            "most wounded healed"
        );
        assert_eq!(
            s.attr(ObjectId(2), HP),
            Some(40i64.into()),
            "other untouched"
        );
    }

    #[test]
    fn scry_result_depends_on_remote_health_changes() {
        // The motivating example: the heal target flips depending on a
        // concurrent damage event — state visibility alone cannot decide it.
        let w = CombatWorld::new(CombatConfig {
            clients: 6,
            scry_range: 1000.0,
            ..CombatConfig::default()
        });
        let mut s = w.initial_state();
        s.set_attr(ObjectId(2), HP, 40i64.into());
        s.set_attr(ObjectId(4), HP, 50i64.into());
        let a = w.scry(ClientId(0), 0, &s).unwrap();
        let before = a.evaluate(w.env(), &s);
        // Ally 4 takes a hit before the scry serializes.
        s.set_attr(ObjectId(4), HP, 10i64.into());
        let after = a.evaluate(w.env(), &s);
        assert_ne!(before, after, "write target must flip from o2 to o4");
    }

    #[test]
    fn scry_with_everyone_at_full_health_aborts() {
        let w = CombatWorld::new(CombatConfig {
            clients: 4,
            scry_range: 1000.0,
            ..CombatConfig::default()
        });
        let s = w.initial_state();
        let a = w.scry(ClientId(0), 0, &s).unwrap();
        assert!(a.evaluate(w.env(), &s).aborted);
    }

    #[test]
    fn dead_avatars_do_not_move() {
        let w = world();
        let mut s = w.initial_state();
        s.set_attr(ObjectId(0), HP, 0i64.into());
        let a = w.walk(ClientId(0), 0, Vec2::new(1.0, 0.0), &s).unwrap();
        assert!(a.evaluate(w.env(), &s).aborted);
    }

    #[test]
    fn insect_clients_get_ambient_class_and_narrow_interest() {
        let w = CombatWorld::new(CombatConfig {
            clients: 10,
            insect_fraction: 0.3,
            ..CombatConfig::default()
        });
        assert!(w.is_insect(ClientId(0)));
        assert!(!w.is_insect(ClientId(9)));
        let s = w.initial_state();
        let bug_move = w.walk(ClientId(0), 0, Vec2::new(1.0, 0.0), &s).unwrap();
        assert_eq!(bug_move.influence().class, CLASS_AMBIENT);
        let human_move = w.walk(ClientId(9), 0, Vec2::new(1.0, 0.0), &s).unwrap();
        assert_eq!(human_move.influence().class, CLASS_COMBAT);
        assert!(!w.client_interests(ClientId(9)).contains(CLASS_AMBIENT));
        assert!(w.client_interests(ClientId(0)).contains(CLASS_AMBIENT));
    }

    #[test]
    fn workload_is_deterministic() {
        let mk = || {
            let w = Arc::new(CombatWorld::new(CombatConfig {
                clients: 8,
                seed: 99,
                ..CombatConfig::default()
            }));
            let mut wl = CombatWorkload::new(Arc::clone(&w));
            let s = w.initial_state();
            (0..8u16)
                .map(|c| format!("{:?}", wl.next_action(ClientId(c), 0, &s, 0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
