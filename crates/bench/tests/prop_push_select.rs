//! The grid-indexed push candidate selection must be observationally
//! identical to the linear reference scan — same clients, same positions,
//! same order — on randomized Manhattan workloads. Golden digests already
//! pin four full protocol runs; this widens the net to arbitrary fleet
//! sizes, mid-run push progress (real `on_push` calls set `sent` bits and
//! per-client push frontiers), dropped entries, and every filter
//! combination (interest masks, velocity culling, the dense-crowd
//! interest-radius override).

use proptest::prelude::*;
use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::pipeline::{ingress, PipelineState, RoutingPolicy, SphereRouting};
use seve_net::time::SimTime;
use seve_world::ids::ClientId;
use seve_world::worlds::manhattan::{ManhattanConfig, ManhattanWorkload, ManhattanWorld};
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::sync::Arc;

#[allow(clippy::too_many_arguments)]
fn run_selection(
    seed: u64,
    clients: usize,
    total: usize,
    split: usize,
    mode: ServerMode,
    interest_filtering: bool,
    velocity_culling: bool,
    override_r: Option<f64>,
    drop_mask: &[bool],
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients,
        walls: 0,
        seed,
        ..ManhattanConfig::default()
    }));
    let cfg = ProtocolConfig {
        interest_filtering,
        velocity_culling,
        interest_radius_override: override_r,
        ..ProtocolConfig::with_mode(mode)
    };
    let mut st = PipelineState::new(world.clone(), cfg.clone());
    let mut routing = SphereRouting::new(world.as_ref(), &cfg);
    let mut wl = ManhattanWorkload::new(&world);
    let mut state = world.initial_state();
    let mut seqs = vec![0u32; clients];
    let mut out = Vec::new();
    for i in 0..total {
        if i == split {
            // A real mid-run push: sets `sent` bits and per-client push
            // frontiers through the production path, so the final
            // comparison sees a mid-cycle server, not a fresh one.
            if let Some(h) = st.queue.last_pos() {
                RoutingPolicy::<ManhattanWorld>::on_push(
                    &mut routing,
                    &mut st,
                    SimTime(i as u64 * 1_000 + 500),
                    h,
                    &mut out,
                );
            }
        }
        let c = ClientId((i % clients) as u16);
        let a = wl.next_action(c, seqs[c.index()], &state, 0).expect("move");
        seqs[c.index()] += 1;
        let o = seve_world::Action::evaluate(&a, world.env(), &state);
        state.apply_writes(&o.writes);
        RoutingPolicy::<ManhattanWorld>::before_enqueue(&mut routing, &mut st, c, &a);
        ingress::admit(&mut st, SimTime(i as u64 * 1_000), a);
    }
    // Mark an arbitrary subset dropped; both selectors must skip them.
    for e in st.queue.iter_mut_rev() {
        if drop_mask.get(e.pos as usize).copied().unwrap_or(false) {
            e.dropped = true;
        }
    }

    let horizon = st.queue.last_pos().unwrap_or(0);
    let now = SimTime(total as u64 * 1_000 + 10_000);
    let mut indexed = Vec::new();
    let mut linear = Vec::new();
    routing.select_candidates_indexed(&st, now, horizon, &mut indexed);
    routing.select_candidates_linear(&st, now, horizon, &mut linear);
    (indexed, linear)
}

/// One large window: 400 undelivered entries for 32 clients, with interest
/// filtering and velocity culling on, all selected in one call.
#[test]
fn large_window_selection_matches_linear_scan() {
    let (indexed, linear) = run_selection(
        0x5EED,
        32,
        400,
        0,
        ServerMode::InfoBound,
        true,
        true,
        None,
        &[],
    );
    assert_eq!(indexed, linear);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_selection_matches_linear_scan(
        seed in any::<u64>(),
        clients in 2usize..24,
        total in 1usize..96,
        split_frac in 0.0f64..1.0,
        info_bound in any::<bool>(),
        interest_filtering in any::<bool>(),
        velocity_culling in any::<bool>(),
        override_on in any::<bool>(),
        override_r in 1.0f64..200.0,
        drop_mask in prop::collection::vec(any::<bool>(), 96),
    ) {
        let mode = if info_bound { ServerMode::InfoBound } else { ServerMode::FirstBound };
        let split = ((total as f64) * split_frac) as usize;
        let (indexed, linear) = run_selection(
            seed,
            clients,
            total,
            split,
            mode,
            interest_filtering,
            velocity_culling,
            override_on.then_some(override_r),
            &drop_mask,
        );
        prop_assert_eq!(indexed, linear);
    }
}
