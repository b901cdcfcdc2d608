//! Property-based tests for the world substrate: the read/write-set
//! algebra, the state store, and the spatial index all agree with naive
//! reference models on arbitrary inputs.

use proptest::prelude::*;
use seve_net::wire::{from_bytes, to_bytes};
use seve_world::geometry::{Aabb, Segment, Vec2};
use seve_world::ids::{AttrId, ObjectId};
use seve_world::object::{WorldObject, INLINE};
use seve_world::objset::{ObjectSet, INLINE as SET_INLINE};
use seve_world::spatial::UniformGrid;
use seve_world::state::{Snapshot, WorldState, WriteLog};
use seve_world::terrain::Terrain;
use seve_world::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The maps of the end-to-end benchmark's `crowd`, `loopback` and `sprawl`
/// workloads and the paper's own (Table I), built once.
fn benchmark_maps() -> &'static [Terrain] {
    static MAPS: OnceLock<Vec<Terrain>> = OnceLock::new();
    MAPS.get_or_init(|| {
        [(140.0, 160), (90.0, 45), (4000.0, 1000), (1000.0, 100_000)]
            .into_iter()
            .map(|(side, walls)| {
                Terrain::manhattan(Aabb::from_size(side, side), walls, 10.0, 0x5E4E_2009)
            })
            .collect()
    })
}

/// 160 walls on 140² handed to `from_walls`: midpoints exactly on the cell
/// edges the density rule produces, on the bounds, up to 60 units outside
/// them, and anywhere; any orientation, length 0 to 18.
fn edge_case_map(seed: u64) -> Terrain {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let cell = (2.0 * 140.0 * 140.0 / 160.0_f64).sqrt();
    let walls = (0..160)
        .map(|i| {
            let mid = match i % 4 {
                0 => Vec2::new(cell * (i / 4 % 9) as f64, cell * (i / 36 % 9) as f64),
                1 => Vec2::new(unit() * 260.0 - 60.0, unit() * 260.0 - 60.0),
                2 => Vec2::new([0.0, 140.0][i / 4 % 2], unit() * 140.0),
                _ => Vec2::new(unit() * 140.0, unit() * 140.0),
            };
            let half = Vec2::from_angle(unit() * 6.3) * (unit() * 9.0);
            Segment::new(mid - half, mid + half)
        })
        .collect();
    Terrain::from_walls(Aabb::from_size(140.0, 140.0), walls)
}

fn ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..64, 0..24)
}

/// The store as it was before the dense table: a `BTreeMap` from id to a
/// sorted `Vec` attribute tuple, held by value.
type Model = BTreeMap<ObjectId, Vec<(AttrId, Value)>>;

fn model_set(o: &mut Vec<(AttrId, Value)>, a: AttrId, v: Value) {
    match o.binary_search_by_key(&a, |&(x, _)| x) {
        Ok(i) => o[i].1 = v,
        Err(i) => o.insert(i, (a, v)),
    }
}

fn model_object(attrs: &[(AttrId, Value)]) -> Vec<(AttrId, Value)> {
    let mut o = Vec::new();
    for &(a, v) in attrs {
        model_set(&mut o, a, v);
    }
    o
}

/// `WorldState::digest` written out over the model.
fn model_digest(m: &Model) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (id, o) in m {
        h ^= u64::from(id.0).wrapping_mul(0x2545_F491_4F6C_DD1D);
        for &(a, v) in o {
            h ^= u64::from(a.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = v.fold_digest(h);
        }
    }
    h
}

/// Ids up to 24, so tables of different lengths meet and a few objects sit
/// past the end of another state's table.
const IDS: u32 = 24;
/// Attribute ids up to 6: twice the inline capacity, so objects spill.
const ATTRS: u16 = 6;
/// States the op sequences move objects between.
const STATES: usize = 3;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-9i64..9).prop_map(Value::I64),
        any::<bool>().prop_map(Value::Bool),
        (-9.0f64..9.0, -9.0f64..9.0).prop_map(|(x, y)| Value::Vec2(Vec2::new(x, y))),
    ]
}

fn attrs() -> impl Strategy<Value = Vec<(AttrId, Value)>> {
    prop::collection::vec((0..ATTRS, value()), 0..8)
        .prop_map(|v| v.into_iter().map(|(a, x)| (AttrId(a), x)).collect())
}

fn object_ids() -> impl Strategy<Value = Vec<ObjectId>> {
    prop::collection::vec(0..IDS, 0..8).prop_map(|v| v.into_iter().map(ObjectId).collect())
}

fn skip() -> impl Strategy<Value = Option<ObjectSet>> {
    prop::option::of(object_ids().prop_map(|v| v.into_iter().collect()))
}

/// One mutation of state `.0` (and, for the two-state ops, `.1` is the
/// source).
#[derive(Clone, Debug)]
enum Op {
    SetAttr(usize, ObjectId, AttrId, Value),
    Put(usize, ObjectId, Vec<(AttrId, Value)>),
    Remove(usize, ObjectId),
    Writes(usize, Vec<(ObjectId, AttrId, Value)>, Option<ObjectSet>),
    Snapshot(
        usize,
        Vec<(ObjectId, Vec<(AttrId, Value)>)>,
        Option<ObjectSet>,
    ),
    CopyObjectsFrom(usize, usize, Vec<ObjectId>),
    Overlay(usize, usize),
    Clone(usize, usize),
    CloneFrom(usize, usize),
    Reset(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let s = || 0..STATES;
    let id = || (0..IDS).prop_map(ObjectId);
    prop_oneof![
        (s(), id(), 0..ATTRS, value()).prop_map(|(s, o, a, v)| Op::SetAttr(s, o, AttrId(a), v)),
        (s(), id(), attrs()).prop_map(|(s, o, a)| Op::Put(s, o, a)),
        (s(), id()).prop_map(|(s, o)| Op::Remove(s, o)),
        (
            s(),
            prop::collection::vec((id(), 0..ATTRS, value()), 0..10),
            skip()
        )
            .prop_map(|(s, w, k)| Op::Writes(
                s,
                w.into_iter().map(|(o, a, v)| (o, AttrId(a), v)).collect(),
                k
            )),
        (s(), prop::collection::vec((id(), attrs()), 0..4), skip())
            .prop_map(|(s, objs, k)| Op::Snapshot(s, objs, k)),
        (s(), s(), object_ids()).prop_map(|(d, s, ids)| Op::CopyObjectsFrom(d, s, ids)),
        (s(), s()).prop_map(|(d, s)| Op::Overlay(d, s)),
        (s(), s()).prop_map(|(d, s)| Op::Clone(d, s)),
        (s(), s()).prop_map(|(d, s)| Op::CloneFrom(d, s)),
        s().prop_map(Op::Reset),
    ]
}

/// Apply `op` to the states and to their models.
fn apply(op: &Op, states: &mut [WorldState], models: &mut [Model]) {
    match op {
        Op::SetAttr(s, o, a, v) => {
            states[*s].set_attr(*o, *a, *v);
            model_set(models[*s].entry(*o).or_default(), *a, *v);
        }
        Op::Put(s, o, attrs) => {
            states[*s].put(*o, WorldObject::from_attrs(attrs.iter().copied()));
            models[*s].insert(*o, model_object(attrs));
        }
        Op::Remove(s, o) => {
            let got = states[*s].remove(*o);
            let want = models[*s].remove(o);
            assert_eq!(got.map(|g| g.iter().collect::<Vec<_>>()), want);
        }
        Op::Writes(s, writes, skip) => {
            let mut log = WriteLog::new();
            for &(o, a, v) in writes {
                log.push(o, a, v);
            }
            match skip {
                Some(k) => states[*s].apply_writes_except(&log, k),
                None => states[*s].apply_writes(&log),
            }
            for &(o, a, v) in writes {
                if !skip.as_ref().is_some_and(|k| k.contains(o)) {
                    model_set(models[*s].entry(o).or_default(), a, v);
                }
            }
        }
        Op::Snapshot(s, objects, skip) => {
            let mut snap = Snapshot::new();
            for (o, attrs) in objects {
                snap.push(*o, WorldObject::from_attrs(attrs.iter().copied()));
            }
            match skip {
                Some(k) => states[*s].apply_snapshot_except(&snap, k),
                None => states[*s].apply_snapshot(&snap),
            }
            for (o, attrs) in objects {
                if !skip.as_ref().is_some_and(|k| k.contains(*o)) {
                    models[*s].insert(*o, model_object(attrs));
                }
            }
        }
        Op::CopyObjectsFrom(d, s, ids) => {
            let source = states[*s].clone();
            states[*d].copy_objects_from(&source, ids.iter().copied());
            let source = models[*s].clone();
            for id in ids {
                match source.get(id) {
                    Some(o) => models[*d].insert(*id, o.clone()),
                    None => models[*d].remove(id),
                };
            }
        }
        Op::Overlay(d, s) => {
            let patch = states[*s].clone();
            states[*d].overlay(&patch);
            let patch = models[*s].clone();
            models[*d].extend(patch);
        }
        Op::Clone(d, s) => {
            states[*d] = states[*s].clone();
            models[*d] = models[*s].clone();
        }
        Op::CloneFrom(d, s) => {
            let source = states[*s].clone();
            states[*d].clone_from(&source);
            models[*d] = models[*s].clone();
        }
        Op::Reset(s) => {
            states[*s] = WorldState::new();
            models[*s] = Model::new();
        }
    }
}

/// Everything observable about a state against its model.
fn check(states: &[WorldState], models: &[Model]) -> Result<(), TestCaseError> {
    for (k, (state, model)) in states.iter().zip(models).enumerate() {
        prop_assert_eq!(state.len(), model.len(), "state {} len", k);
        prop_assert_eq!(state.is_empty(), model.is_empty());
        let listed: Vec<(ObjectId, Vec<(AttrId, Value)>)> = state
            .iter()
            .map(|(id, o)| (id, o.iter().collect()))
            .collect();
        let want: Vec<(ObjectId, Vec<(AttrId, Value)>)> =
            model.iter().map(|(id, o)| (*id, o.clone())).collect();
        prop_assert_eq!(&listed, &want, "state {} iter", k);
        for id in (0..IDS + 2).map(ObjectId) {
            let got = state.get(id).map(|o| o.iter().collect::<Vec<_>>());
            prop_assert_eq!(&got, &model.get(&id).cloned(), "state {} get {:?}", k, id);
            prop_assert_eq!(state.contains(id), model.contains_key(&id));
        }
        prop_assert_eq!(state.digest(), model_digest(model), "state {} digest", k);
        let ids: Vec<ObjectId> = model.keys().copied().collect();
        prop_assert_eq!(
            state.object_set(),
            ids.iter().copied().collect::<ObjectSet>()
        );
        // A table built from the model has no empty slots past its last
        // object: `==` must not see the difference.
        let mut rebuilt = WorldState::new();
        for (id, o) in model {
            rebuilt.put(*id, WorldObject::from_attrs(o.iter().copied()));
        }
        prop_assert!(*state == rebuilt, "state {} == its model", k);
        for (j, (other, other_model)) in states.iter().zip(models).enumerate() {
            prop_assert_eq!(*state == *other, model == other_model, "{} == {}", k, j);
            let diverged: Vec<ObjectId> = model
                .iter()
                .filter(|(id, o)| other_model.get(id).is_some_and(|p| p != *o))
                .map(|(id, _)| *id)
                .collect();
            prop_assert_eq!(
                state.divergence_on_common(other),
                diverged,
                "{} vs {}",
                k,
                j
            );
        }
    }
    Ok(())
}

proptest! {
    /// The dense table against the `BTreeMap` store after every operation
    /// of a random sequence over three states.
    #[test]
    fn world_state_matches_the_btreemap_store(ops in prop::collection::vec(op(), 0..40)) {
        let mut states: Vec<WorldState> = (0..STATES).map(|_| WorldState::new()).collect();
        let mut models: Vec<Model> = vec![Model::new(); STATES];
        for op in &ops {
            apply(op, &mut states, &mut models);
            check(&states, &models).map_err(|e| TestCaseError::fail(format!("after {op:?}: {e}")))?;
        }
    }

    /// Objects of up to 8 attributes, past the inline capacity and back
    /// through the codec: the attributes are the sorted tuple, and the
    /// bytes are those of the `Vec<(AttrId, Value)>` the object used to be.
    #[test]
    fn world_objects_spill_and_encode_as_a_vec(pairs in attrs(), extra in attrs()) {
        let mut all = pairs.clone();
        all.extend(extra);
        let object = WorldObject::from_attrs(all.iter().copied());
        let tuple = model_object(&all);
        prop_assert_eq!(object.iter().collect::<Vec<_>>(), tuple.clone());
        prop_assert_eq!(object.len(), tuple.len());
        for a in (0..ATTRS + 1).map(AttrId) {
            let want = tuple.iter().find(|&&(x, _)| x == a).map(|&(_, v)| v);
            prop_assert_eq!(object.get(a), want);
        }
        let bytes = to_bytes(&object).unwrap();
        prop_assert_eq!(&bytes, &to_bytes(&tuple).unwrap(), "{} attributes", tuple.len());
        let back: WorldObject = from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &object);
        prop_assert_eq!(back.fold_digest(1), object.fold_digest(1));
        // The first `INLINE` attributes alone stay inline; equal content is
        // equal whichever form holds it.
        let prefix = WorldObject::from_attrs(tuple.iter().copied().take(INLINE));
        let head: Vec<(AttrId, Value)> = tuple.iter().copied().take(INLINE).collect();
        let decoded: WorldObject = from_bytes(&to_bytes(&head).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &prefix);
        prop_assert_eq!(object == prefix, tuple.len() <= INLINE);
    }

    #[test]
    fn objectset_matches_btreeset_model(a in ids(), b in ids()) {
        let sa: ObjectSet = a.iter().map(|&i| ObjectId(i)).collect();
        let sb: ObjectSet = b.iter().map(|&i| ObjectId(i)).collect();
        let ma: BTreeSet<u32> = a.iter().copied().collect();
        let mb: BTreeSet<u32> = b.iter().copied().collect();

        // Intersection emptiness.
        prop_assert_eq!(sa.intersects(&sb), ma.intersection(&mb).next().is_some());

        // Union.
        let mut u = sa.clone();
        u.union_with(&sb);
        let mu: Vec<u32> = ma.union(&mb).copied().collect();
        prop_assert_eq!(u.iter().map(|o| o.0).collect::<Vec<_>>(), mu);

        // Difference.
        let mut d = sa.clone();
        d.subtract(&sb);
        let md: Vec<u32> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(d.iter().map(|o| o.0).collect::<Vec<_>>(), md);

        // Membership.
        for i in 0..64u32 {
            prop_assert_eq!(sa.contains(ObjectId(i)), ma.contains(&i));
        }
    }

    #[test]
    fn objectset_insert_remove_consistent(ops in prop::collection::vec((0u32..32, any::<bool>()), 0..64)) {
        let mut s = ObjectSet::new();
        let mut m = BTreeSet::new();
        for (id, insert) in ops {
            if insert {
                prop_assert_eq!(s.insert(ObjectId(id)), m.insert(id));
            } else {
                prop_assert_eq!(s.remove(ObjectId(id)), m.remove(&id));
            }
            prop_assert_eq!(s.len(), m.len());
        }
    }

    #[test]
    fn write_log_application_order_is_last_writer_wins(
        writes in prop::collection::vec((0u32..8, 0u16..4, -100i64..100), 1..40)
    ) {
        let mut log = WriteLog::new();
        for &(o, a, v) in &writes {
            log.push(ObjectId(o), AttrId(a), Value::I64(v));
        }
        let mut state = WorldState::new();
        state.apply_writes(&log);
        // Model: the last write to each (object, attr) wins.
        for &(o, a, _) in &writes {
            let expected = writes
                .iter()
                .rev()
                .find(|&&(o2, a2, _)| o2 == o && a2 == a)
                .map(|&(_, _, v)| v)
                .expect("at least the probe itself");
            prop_assert_eq!(state.attr(ObjectId(o), AttrId(a)), Some(Value::I64(expected)));
        }
        // Applying the same log again is idempotent.
        let d1 = state.digest();
        state.apply_writes(&log);
        prop_assert_eq!(state.digest(), d1);
    }

    #[test]
    fn state_digest_is_content_addressed(
        writes in prop::collection::vec((0u32..6, 0u16..3, -50i64..50), 0..30)
    ) {
        // Building the same content along different orders digests equal
        // when the final content is equal.
        let mut s1 = WorldState::new();
        let mut s2 = WorldState::new();
        for &(o, a, v) in &writes {
            s1.set_attr(ObjectId(o), AttrId(a), Value::I64(v));
        }
        for &(o, a, v) in writes.iter().rev() {
            s2.set_attr(ObjectId(o), AttrId(a), Value::I64(v));
        }
        // s2 applied reversed: last-writer differs, so rebuild it forward.
        let mut s3 = WorldState::new();
        for &(o, a, v) in &writes {
            s3.set_attr(ObjectId(o), AttrId(a), Value::I64(v));
        }
        prop_assert_eq!(s1.digest(), s3.digest());
        prop_assert_eq!(s1 == s2, s1.digest() == s2.digest());
    }

    #[test]
    fn snapshot_restores_captured_objects_exactly(
        writes in prop::collection::vec((0u32..6, 0u16..3, -50i64..50), 1..30),
        probe in 0u32..6
    ) {
        let mut original = WorldState::new();
        let mut log = WriteLog::new();
        for &(o, a, v) in &writes {
            log.push(ObjectId(o), AttrId(a), Value::I64(v));
        }
        original.apply_writes(&log);
        let set = original.object_set();
        let snap = original.snapshot_of(&set);
        // Wreck an existing object in a copy, restore from the snapshot:
        // equality returns. (A snapshot replaces captured objects wholesale
        // but cannot delete objects it never captured.)
        let mut copy = original.clone();
        if copy.contains(ObjectId(probe)) {
            copy.set_attr(ObjectId(probe), AttrId(0), Value::Bool(true));
        }
        copy.apply_snapshot(&snap);
        prop_assert_eq!(copy.digest(), original.digest());
    }

    #[test]
    fn grid_matches_brute_force(
        pts in prop::collection::vec((0.0f64..200.0, 0.0f64..200.0), 0..80),
        qx in 0.0f64..200.0,
        qy in 0.0f64..200.0,
        r in 0.1f64..80.0
    ) {
        let mut grid = UniformGrid::new(Aabb::from_size(200.0, 200.0), 11.0);
        for (k, &(x, y)) in pts.iter().enumerate() {
            grid.insert(k as u32, Vec2::new(x, y));
        }
        let center = Vec2::new(qx, qy);
        let mut got: Vec<u32> = grid.query_within(center, r).iter().map(|&(k, _)| k).collect();
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|&(_, &(x, y))| center.dist2(Vec2::new(x, y)) <= r * r)
            .map(|(k, _)| k as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn terrain_wall_counts_match_brute_force(
        map in 0usize..6,
        seed in 0u64..1000,
        fx in -0.5f64..1.5,
        fy in -0.5f64..1.5,
        fr in 0.0f64..2.0,
        heading in 0.0f64..6.3,
        stride in 0.0f64..12.0
    ) {
        // Maps 0..4 are fixed; 4 and 5 are rebuilt from `seed` every case.
        let built;
        let t = match map {
            4 => { built = edge_case_map(seed); &built }
            5 => {
                built = Terrain::manhattan(Aabb::from_size(300.0, 300.0), (seed % 200) as usize, 10.0, seed);
                &built
            }
            i => &benchmark_maps()[i],
        };
        let extent = t.bounds().width();
        // Inside and outside the bounds; radii from 0 to twice the extent,
        // the small ones (where boundary cells dominate) as often as the
        // large ones.
        let p = Vec2::new(fx * extent, fy * extent);
        let r = if seed % 2 == 0 { fr * extent } else { fr * 40.0 };
        let longest = t.walls().iter().map(|w| w.len()).fold(0.0, f64::max);
        let reach = r + longest * 0.5;
        let slow = t
            .walls()
            .iter()
            .filter(|w| p.dist2(w.midpoint()) <= reach * reach && w.within(p, r))
            .count();
        prop_assert_eq!(t.walls_within(p, r), slow, "p {:?} r {}", p, r);

        let path = Segment::new(p, p + Vec2::from_angle(heading) * stride);
        let crossed = t.walls().iter().any(|w| path.intersects(w));
        prop_assert_eq!(t.path_blocked(path.a, path.b), crossed, "path {:?}", path);
    }

    #[test]
    fn divergence_on_common_is_symmetric_and_sound(
        wa in prop::collection::vec((0u32..5, 0u16..2, -9i64..9), 0..15),
        wb in prop::collection::vec((0u32..5, 0u16..2, -9i64..9), 0..15)
    ) {
        let mut a = WorldState::new();
        let mut b = WorldState::new();
        for &(o, at, v) in &wa {
            a.set_attr(ObjectId(o), AttrId(at), Value::I64(v));
        }
        for &(o, at, v) in &wb {
            b.set_attr(ObjectId(o), AttrId(at), Value::I64(v));
        }
        let dab = a.divergence_on_common(&b);
        let dba = b.divergence_on_common(&a);
        prop_assert_eq!(&dab, &dba, "divergence is symmetric");
        for id in dab {
            prop_assert!(a.get(id).is_some() && b.get(id).is_some());
            prop_assert_ne!(a.get(id), b.get(id));
        }
    }

    #[test]
    fn signature_soundness_and_membership_purity(
        a in ids(),
        b in ids(),
        ops in prop::collection::vec((0u32..48, any::<bool>()), 0..64)
    ) {
        // Soundness of the conflict-scan gate: a zero signature AND means
        // the sets cannot share an element, so `intersects` may return
        // false without merging.
        let sa: ObjectSet = a.iter().map(|&i| ObjectId(i)).collect();
        let sb: ObjectSet = b.iter().map(|&i| ObjectId(i)).collect();
        if sa.signature() & sb.signature() == 0 {
            let ma: BTreeSet<u32> = a.iter().copied().collect();
            let mb: BTreeSet<u32> = b.iter().copied().collect();
            prop_assert!(ma.intersection(&mb).next().is_none());
            prop_assert!(!sa.intersects(&sb));
        }

        // Purity: after any op sequence, the signature equals that of a
        // set freshly built from the same membership (no stale bits from
        // removals, unions, or subtractions).
        let mut s = ObjectSet::new();
        for &(id, insert) in &ops {
            if insert {
                s.insert(ObjectId(id));
            } else {
                s.remove(ObjectId(id));
            }
        }
        let mut u = s.clone();
        u.union_with(&sa);
        u.subtract(&sb);
        let rebuilt: ObjectSet = u.iter().collect();
        prop_assert_eq!(u.signature(), rebuilt.signature());
        prop_assert_eq!(&u, &rebuilt);
    }
}

/// Ids the object-set op sequences draw from: three times the inline
/// capacity, so sets cross it in both directions.
const SET_IDS: u32 = 3 * SET_INLINE as u32;
/// Sets the op sequences operate on (each can be the other's operand, so
/// merges meet spilled and inline operands).
const SETS: usize = 2;

/// The other operand of a union or difference: one of the sets, or a set
/// built from ids for the occasion.
#[derive(Clone, Debug)]
enum Operand {
    Set(usize),
    Fresh(Vec<u32>),
}

/// One mutation of set `.0`.
#[derive(Clone, Debug)]
enum SetOp {
    Insert(usize, u32),
    Remove(usize, u32),
    Union(usize, Operand),
    Subtract(usize, Operand),
    Extend(usize, Vec<u32>),
    Clear(usize),
    FromIter(usize, Vec<u32>),
}

fn set_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..SET_IDS, 0..2 * SET_INLINE + 2)
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0..SETS).prop_map(Operand::Set),
        set_ids().prop_map(Operand::Fresh),
    ]
}

fn set_op() -> impl Strategy<Value = SetOp> {
    let s = || 0..SETS;
    let id = || 0..SET_IDS;
    // Single-id steps twice over, so sets walk across the inline capacity
    // one id at a time as often as they jump it.
    prop_oneof![
        (s(), id()).prop_map(|(s, id)| SetOp::Insert(s, id)),
        (s(), id()).prop_map(|(s, id)| SetOp::Insert(s, id)),
        (s(), id()).prop_map(|(s, id)| SetOp::Remove(s, id)),
        (s(), id()).prop_map(|(s, id)| SetOp::Remove(s, id)),
        (s(), operand()).prop_map(|(s, o)| SetOp::Union(s, o)),
        (s(), operand()).prop_map(|(s, o)| SetOp::Subtract(s, o)),
        (s(), set_ids()).prop_map(|(s, ids)| SetOp::Extend(s, ids)),
        s().prop_map(SetOp::Clear),
        (s(), set_ids()).prop_map(|(s, ids)| SetOp::FromIter(s, ids)),
    ]
}

fn object_set(ids: &[u32]) -> ObjectSet {
    ids.iter().map(|&i| ObjectId(i)).collect()
}

/// Checks in which a set that had grown past the inline capacity, and then
/// shrunk back to it, was compared with one built inline; and forged
/// encodings the decoder refused.
static SHRUNK_SETS_COMPARED: AtomicUsize = AtomicUsize::new(0);
static FORGED_SETS_REFUSED: AtomicUsize = AtomicUsize::new(0);

/// Apply `op` to the sets and to their sorted, duplicate-free models;
/// returns the index of the set it changed.
fn apply_set_op(
    op: &SetOp,
    sets: &mut [ObjectSet],
    models: &mut [Vec<u32>],
) -> Result<usize, TestCaseError> {
    let ids_of = |ids: &[u32]| ids.iter().map(|&i| ObjectId(i)).collect::<Vec<_>>();
    let s = match op {
        SetOp::Insert(s, id) => {
            let fresh = !models[*s].contains(id);
            prop_assert_eq!(sets[*s].insert(ObjectId(*id)), fresh);
            models[*s].push(*id);
            *s
        }
        SetOp::Remove(s, id) => {
            let held = models[*s].contains(id);
            prop_assert_eq!(sets[*s].remove(ObjectId(*id)), held);
            models[*s].retain(|i| i != id);
            *s
        }
        SetOp::Union(s, operand) | SetOp::Subtract(s, operand) => {
            let (with, with_model) = match operand {
                Operand::Set(k) => (sets[*k].clone(), models[*k].clone()),
                Operand::Fresh(ids) => (object_set(ids), ids.clone()),
            };
            if matches!(op, SetOp::Union(..)) {
                sets[*s].union_with(&with);
                models[*s].extend(with_model);
            } else {
                sets[*s].subtract(&with);
                models[*s].retain(|i| !with_model.contains(i));
            }
            *s
        }
        SetOp::Extend(s, ids) => {
            sets[*s].extend(ids_of(ids));
            models[*s].extend(ids);
            *s
        }
        SetOp::Clear(s) => {
            sets[*s].clear();
            models[*s].clear();
            *s
        }
        SetOp::FromIter(s, ids) => {
            sets[*s] = ObjectSet::from_iter(ids_of(ids));
            models[*s] = ids.clone();
            *s
        }
    };
    models[s].sort_unstable();
    models[s].dedup();
    Ok(s)
}

/// Everything observable about a set against its sorted-`Vec` model.
fn check_set(set: &ObjectSet, model: &[u32], other: &[u32]) -> Result<(), TestCaseError> {
    let ids: Vec<ObjectId> = model.iter().map(|&i| ObjectId(i)).collect();
    prop_assert_eq!(set.as_slice(), &ids[..]);
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    for id in 0..SET_IDS + 1 {
        prop_assert_eq!(
            set.contains(ObjectId(id)),
            model.contains(&id),
            "contains {}",
            id
        );
    }
    let fold = model.iter().fold(0u64, |s, &i| {
        s | ObjectSet::singleton(ObjectId(i)).signature()
    });
    prop_assert_eq!(set.signature(), fold, "signature");
    // Whatever form either side holds: built inline from the model, and
    // cloned (a clone of a shrunk spilled set is inline).
    prop_assert_eq!(set, &object_set(model));
    prop_assert_eq!(&set.clone(), set);
    // Against the other set, both ways.
    let other_set = object_set(other);
    prop_assert_eq!(
        set.intersects(&other_set),
        model.iter().any(|i| other.contains(i))
    );
    let not_in: Vec<u32> = set.iter_not_in(&other_set).map(|o| o.0).collect();
    let want: Vec<u32> = model
        .iter()
        .copied()
        .filter(|i| !other.contains(i))
        .collect();
    prop_assert_eq!(not_in, want);
    // On the wire: the bytes of the `Vec<ObjectId>` it replaces, and back.
    let bytes = to_bytes(set).unwrap();
    prop_assert_eq!(&bytes, &to_bytes(&ids).unwrap());
    let back: ObjectSet = from_bytes(&bytes).unwrap();
    prop_assert_eq!(&back, set);
    prop_assert_eq!(back.signature(), fold);
    if ids.len() >= 2 {
        let k = ids.len() / 2;
        let mut swapped = ids.clone();
        swapped.swap(k - 1, k);
        let mut duplicated = ids.clone();
        duplicated[k] = duplicated[k - 1];
        for forged in [swapped, duplicated] {
            prop_assert!(from_bytes::<ObjectSet>(&to_bytes(&forged).unwrap()).is_err());
            FORGED_SETS_REFUSED.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Not a test by itself: `object_sets_match_the_vec_model` runs the
    // cases and then checks they were not vacuous.
    fn object_set_cases(ops in prop::collection::vec(set_op(), 0..48)) {
        let mut sets: Vec<ObjectSet> = (0..SETS).map(|_| ObjectSet::new()).collect();
        let mut models: Vec<Vec<u32>> = vec![Vec::new(); SETS];
        // Has the set held more than the inline capacity since it was last
        // built from scratch?
        let mut grown = [false; SETS];
        for op in &ops {
            let s = apply_set_op(op, &mut sets, &mut models)?;
            if matches!(op, SetOp::FromIter(..)) {
                grown[s] = false;
            }
            grown[s] |= models[s].len() > SET_INLINE;
            if grown[s] && models[s].len() <= SET_INLINE {
                SHRUNK_SETS_COMPARED.fetch_add(1, Ordering::Relaxed);
            }
            for k in 0..SETS {
                check_set(&sets[k], &models[k], &models[(k + 1) % SETS])
                    .map_err(|e| TestCaseError::fail(format!("set {k} after {op:?}: {e}")))?;
            }
        }
    }
}

/// `ObjectSet` holds up to `INLINE` ids inline and spills past that. Random
/// sequences of every mutator over two sets, each the other's operand, are
/// checked after every step against a sorted `Vec` of `u32`: the slice,
/// length, membership, intersection and difference with the other set, the
/// signature as a fold of the members' bits, equality with a set built from
/// the model (a set that spilled and shrank back against an inline one),
/// the encoded bytes of a `Vec<ObjectId>`, and the decoder's refusal of the
/// same ids swapped or duplicated.
#[test]
fn object_sets_match_the_vec_model() {
    object_set_cases();
    for (what, counter) in [
        (
            "shrunk sets compared with inline ones",
            &SHRUNK_SETS_COMPARED,
        ),
        ("forged encodings refused", &FORGED_SETS_REFUSED),
    ] {
        let n = counter.load(Ordering::Relaxed);
        assert!(n > 1000, "only {n} {what}: the model check is vacuous");
    }
}
