//! Microbenchmarks for the paper's in-text server-cost claims.
//!
//! "We empirically determined the time for calculating the transitive
//! closure of conflicts over a single move to be 0.04 ms on average"
//! (Section V-B.1). These benches measure the *real* wall-clock of
//! Algorithm 6 and Algorithm 7 scans over queues of paper-realistic sizes
//! (the simulator charges a calibrated virtual cost; this is the native
//! counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seve_core::closure::{
    analyze_new_actions, analyze_new_actions_linear, closure_for, closure_for_linear, ActionQueue,
    AnalyzeScratch,
};
use seve_net::time::SimTime;
use seve_world::ids::ClientId;
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::sync::Arc;

type Queue = ActionQueue<<ManhattanWorld as GameWorld>::Action>;

/// Build an uncommitted queue of `len` realistic Manhattan moves.
fn queue_of(len: usize) -> (Arc<ManhattanWorld>, Queue) {
    let clients = 64;
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients,
        walls: 0,
        width: 250.0,
        height: 250.0,
        spawn: SpawnPattern::Grid { spacing: 6.0 },
        ..ManhattanConfig::default()
    }));
    let mut wl = ManhattanWorkload::new(&world);
    let mut state = world.initial_state();
    let mut queue = ActionQueue::new();
    let mut seqs = vec![0u32; clients];
    for i in 0..len {
        let c = ClientId((i % clients) as u16);
        let a = wl.next_action(c, seqs[c.index()], &state, 0).expect("move");
        seqs[c.index()] += 1;
        // Advance the shared state so successive moves differ.
        let out = seve_world::Action::evaluate(&a, world.env(), &state);
        state.apply_writes(&out.writes);
        queue.push(a, SimTime::ZERO);
    }
    (world, queue)
}

fn bench_closure(c: &mut Criterion) {
    let mut g = c.benchmark_group("closure");
    for &len in &[16usize, 64, 128, 256] {
        g.bench_with_input(
            BenchmarkId::new("algorithm6_single_move", len),
            &len,
            |b, &len| {
                let (_world, queue) = queue_of(len);
                let last = queue.last_pos().unwrap();
                b.iter_batched(
                    || {
                        // Fresh sent-bits each iteration: clone the queue.
                        clone_queue(&queue)
                    },
                    |mut q| std::hint::black_box(closure_for(&mut q, ClientId(0), &[last])),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(
            BenchmarkId::new("algorithm6_single_move_linear", len),
            &len,
            |b, &len| {
                let (_world, queue) = queue_of(len);
                let last = queue.last_pos().unwrap();
                b.iter_batched(
                    || clone_queue(&queue),
                    |mut q| std::hint::black_box(closure_for_linear(&mut q, ClientId(0), &[last])),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(BenchmarkId::new("algorithm7_tick", len), &len, |b, &len| {
            let (_world, queue) = queue_of(len);
            let mut scratch = AnalyzeScratch::new();
            b.iter_batched(
                || clone_queue(&queue),
                |mut q| std::hint::black_box(analyze_new_actions(&mut q, 1, 45.0, &mut scratch)),
                criterion::BatchSize::SmallInput,
            )
        });
        g.bench_with_input(
            BenchmarkId::new("algorithm7_tick_linear", len),
            &len,
            |b, &len| {
                let (_world, queue) = queue_of(len);
                b.iter_batched(
                    || clone_queue(&queue),
                    |mut q| std::hint::black_box(analyze_new_actions_linear(&mut q, 1, 45.0)),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

/// ActionQueue has no Clone (sent bits are run state); rebuild instead.
fn clone_queue(src: &Queue) -> Queue {
    let mut q = ActionQueue::new();
    for e in src.iter() {
        q.push((*e.action).clone(), e.submit_time);
    }
    q
}

criterion_group!(benches, bench_closure);
criterion_main!(benches);
