//! Property-based tests for the world substrate: the read/write-set
//! algebra, the state store, and the spatial index all agree with naive
//! reference models on arbitrary inputs.

use proptest::prelude::*;
use seve_world::geometry::{Aabb, Segment, Vec2};
use seve_world::ids::{AttrId, ObjectId};
use seve_world::objset::ObjectSet;
use seve_world::spatial::UniformGrid;
use seve_world::state::{WorldState, WriteLog};
use seve_world::terrain::Terrain;
use seve_world::value::Value;
use std::collections::BTreeSet;
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

proptest! {
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
