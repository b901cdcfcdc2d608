//! Substrate microbenchmarks: the world-state database, the read/write-set
//! algebra, the replica's replay-log bookkeeping, the spatial index (vs
//! brute force), and terrain queries — the inner loops every protocol
//! variant leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seve_bench::replay_fixture::{initial_state, storm};
use seve_core::replay::ReplayLog;
use seve_net::wire::{from_bytes, to_bytes};
use seve_world::action::Action;
use seve_world::geometry::{Aabb, Vec2};
use seve_world::ids::{AttrId, ObjectId};
use seve_world::objset::ObjectSet;
use seve_world::spatial::UniformGrid;
use seve_world::state::{WorldState, WriteLog};
use seve_world::terrain::Terrain;

fn bench_state(c: &mut Criterion) {
    let mut g = c.benchmark_group("state");
    let mut state = WorldState::new();
    for o in 0..64u32 {
        for a in 0..3u16 {
            state.set_attr(ObjectId(o), AttrId(a), (o as i64 * 3 + a as i64).into());
        }
    }
    let mut log = WriteLog::new();
    for o in 0..8u32 {
        log.push(ObjectId(o), AttrId(0), 99i64.into());
    }
    g.bench_function("apply_writes_8_objects", |b| {
        b.iter(|| {
            let mut s = state.clone();
            s.apply_writes(&log);
            std::hint::black_box(s.len())
        })
    });
    g.bench_function("digest_64_objects", |b| {
        b.iter(|| std::hint::black_box(state.digest()))
    });
    g.bench_function("snapshot_of_16", |b| {
        let set: ObjectSet = (0..16u32).map(ObjectId).collect();
        b.iter(|| std::hint::black_box(state.snapshot_of(&set).len()))
    });

    // Crowd-sized: 128 avatars of three attributes, the state every
    // `crowd` replica holds three times.
    let mut crowd = WorldState::new();
    for o in 0..128u32 {
        for a in 0..3u16 {
            crowd.set_attr(ObjectId(o), AttrId(a), (o as i64 * 3 + a as i64).into());
        }
    }
    // ζ_CO drifts from ζ_CS by k written objects (each a copy on first
    // write), then `clone_from` brings it back by re-pointing those k.
    for k in [1u32, 8, 32] {
        g.bench_with_input(
            BenchmarkId::new("clone_from_128_after_writes", k),
            &k,
            |b, &k| {
                let mut optimistic = crowd.clone();
                b.iter(|| {
                    for o in 0..k {
                        optimistic.set_attr(ObjectId(o * 3 % 128), AttrId(0), 1i64.into());
                    }
                    optimistic.clone_from(&crowd);
                    std::hint::black_box(optimistic.len())
                })
            },
        );
    }
    // The reads of one `crowd` move: fifteen avatars.
    let read_set: Vec<ObjectId> = (0..15u32).map(|i| ObjectId(i * 8)).collect();
    g.bench_function("get_15_id_read_set", |b| {
        b.iter(|| {
            read_set
                .iter()
                .filter_map(|&id| crowd.get(id))
                .map(|o| o.len())
                .sum::<usize>()
        })
    });
    // One move's writes to an object another state shares: the copy on
    // first write, then the pointer put back.
    let mut move_log = WriteLog::new();
    for a in 0..3u16 {
        move_log.push(ObjectId(5), AttrId(a), 7i64.into());
    }
    g.bench_function("apply_writes_shared_object", |b| {
        let mut s = crowd.clone();
        b.iter(|| {
            s.apply_writes(&move_log);
            s.copy_objects_from(&crowd, [ObjectId(5)]);
            std::hint::black_box(s.len())
        })
    });
    g.finish();
}

fn bench_objset(c: &mut Criterion) {
    let mut g = c.benchmark_group("objset");
    // Tens of nanoseconds a call: enough calls that the clock reads vanish.
    g.sample_size(1_000_000);
    let a: ObjectSet = (0..16u32).map(|i| ObjectId(i * 3)).collect();
    let b_set: ObjectSet = (0..16u32).map(|i| ObjectId(i * 5)).collect();
    g.bench_function("intersects_16x16", |bench| {
        bench.iter(|| std::hint::black_box(a.intersects(&b_set)))
    });
    g.bench_function("union_16x16", |bench| {
        bench.iter(|| {
            let mut u = a.clone();
            u.union_with(&b_set);
            std::hint::black_box(u.len())
        })
    });
    g.bench_function("subtract_16x16", |bench| {
        bench.iter(|| {
            let mut d = a.clone();
            d.subtract(&b_set);
            std::hint::black_box(d.len())
        })
    });
    // A `melee` move's read or write set: one avatar.
    let single = ObjectSet::singleton(ObjectId(7));
    g.bench_function("singleton_clone", |bench| {
        bench.iter(|| std::hint::black_box(single.clone()))
    });
    // A shot's read set, off the wire: shooter and target.
    let pair = to_bytes(
        &[ObjectId(3), ObjectId(250)]
            .into_iter()
            .collect::<ObjectSet>(),
    )
    .unwrap();
    g.bench_function("decode_2_ids", |bench| {
        bench.iter(|| std::hint::black_box(from_bytes::<ObjectSet>(&pair).unwrap().len()))
    });
    // The replay log's commute gate: a two-id set against a `crowd`-sized
    // fifteen-id one whose signature collides with it, so the merge runs.
    let fifteen: ObjectSet = (0..15u32).map(|i| ObjectId(i * 8)).collect();
    let miss = (1..)
        .map(ObjectId)
        .find(|&id| {
            !fifteen.contains(id) && ObjectSet::singleton(id).signature() & fifteen.signature() != 0
        })
        .expect("some id shares a signature bit");
    let two: ObjectSet = [ObjectId(1), miss].into_iter().collect();
    assert!(!two.intersects(&fifteen));
    g.bench_function("intersects_inline_vs_spilled", |bench| {
        bench.iter(|| std::hint::black_box(two.intersects(&fifteen)))
    });
    // Algorithm 6's `S ← S ∪ RS(a)` from one object to a `crowd` read set.
    g.bench_function("union_with_15", |bench| {
        bench.iter(|| {
            let mut u = single.clone();
            u.union_with(&fifteen);
            std::hint::black_box(u.len())
        })
    });
    g.finish();
}

/// A replica's bookkeeping for in-order items: file forty actions as they
/// arrive, then fold them into the base two at a time, as the server's
/// install notices do. One log serves every iteration, at rising positions.
fn bench_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("replay");
    g.sample_size(2_000);
    let mut arrivals = storm(64);
    arrivals.sort_by_key(|&(pos, _)| pos);
    let actions: Vec<_> = arrivals.into_iter().map(|(_, a)| a).collect();
    let mut log = ReplayLog::new(initial_state(64));
    let mut next = 1u64;
    g.bench_function("fill_40_gc_by_2", |bench| {
        bench.iter(|| {
            for _ in 0..40 {
                let a = actions[(next % 64) as usize].clone();
                log.insert_action(next, a, |_, a, s, _| a.evaluate(&(), s));
                next += 1;
            }
            while log.log_len() > 0 {
                log.gc(log.base_pos() + 2);
            }
            std::hint::black_box(log.base_pos())
        })
    });
    g.finish();
}

fn bench_spatial(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial");
    let bounds = Aabb::from_size(1000.0, 1000.0);
    let n = 4096u32;
    let pts: Vec<Vec2> = (0..n)
        .map(|i| {
            // Deterministic quasi-random scatter.
            let x = (i as f64 * 137.508) % 1000.0;
            let y = (i as f64 * 57.295) % 1000.0;
            Vec2::new(x, y)
        })
        .collect();
    let mut grid = UniformGrid::new(bounds, 30.0);
    for (i, &p) in pts.iter().enumerate() {
        grid.insert(i as u32, p);
    }
    let center = Vec2::new(500.0, 500.0);
    for &r in &[30.0f64, 60.0, 120.0] {
        g.bench_with_input(BenchmarkId::new("grid_query", r as u32), &r, |b, &r| {
            b.iter(|| std::hint::black_box(grid.count_within(center, r)))
        });
        g.bench_with_input(BenchmarkId::new("brute_force", r as u32), &r, |b, &r| {
            b.iter(|| std::hint::black_box(pts.iter().filter(|p| p.dist2(center) <= r * r).count()))
        });
    }
    g.finish();
}

fn bench_terrain(c: &mut Criterion) {
    let mut g = c.benchmark_group("terrain");
    g.sample_size(20);
    let t = Terrain::manhattan(Aabb::from_size(1000.0, 1000.0), 100_000, 10.0, 7);
    let p = Vec2::new(500.0, 500.0);
    g.bench_function("walls_within_visibility_100k", |b| {
        b.iter(|| std::hint::black_box(t.walls_within(p, 56.42)))
    });
    g.bench_function("path_blocked_one_move_100k", |b| {
        b.iter(|| std::hint::black_box(t.path_blocked(p, Vec2::new(503.0, 500.0))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_state,
    bench_objset,
    bench_replay,
    bench_spatial,
    bench_terrain
);
criterion_main!(benches);
