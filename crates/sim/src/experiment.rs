//! The paper's evaluation, experiment by experiment (Section V).
//!
//! Each function regenerates one table or figure as a [`Figure`] of
//! series. Two scales: [`Scale::Quick`] for tests and smoke runs (fewer
//! sweep points and moves, fixed-cost moves), [`Scale::Full`] for the
//! paper-fidelity reproduction used by the `repro` binary and recorded in
//! `EXPERIMENTS.md`.
//!
//! | Experiment | Function | Paper claim reproduced |
//! |---|---|---|
//! | Table I | [`table1`] | simulation settings |
//! | Fig 6 | [`fig6`] | Central & Broadcast collapse ≈30–32 clients; SEVE flat |
//! | Fig 7 | [`fig7`] | Central/Broadcast unusable >10 ms/action; SEVE flat |
//! | Fig 8 | [`fig8`] | naive SEVE bogs down >35 visible; dropping stays stable |
//! | Fig 9 | [`fig9`] | Broadcast traffic quadratic; SEVE ≈ Central ≈ optimal |
//! | Fig 10 | [`fig10`] | SEVE ≈ RING response (+≈1%); RING inconsistent |
//! | Table II | [`table2`] | % moves dropped vs move effect range |
//! | In-text | [`server_capacity`] | ≈3500 clients on one server |

use crate::report::{Figure, Series};
use crate::{RunResult, SimConfig, Simulation};
use seve_baselines::{BroadcastSuite, CentralSuite, RingSuite};
use seve_core::config::{ProtocolConfig, ServerMode};
use seve_core::server::SeveSuite;
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use seve_world::GameWorld;
use std::sync::Arc;

/// Experiment fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Few sweep points, short runs, fixed per-move cost — seconds, for
    /// tests.
    Quick,
    /// The paper's parameters (Table I) — for the `repro` binary.
    Full,
}

impl Scale {
    fn moves(self) -> u32 {
        match self {
            Scale::Quick => 30,
            Scale::Full => 100,
        }
    }

    fn walls(self) -> usize {
        match self {
            // Quick keeps the calibrated 7.44 ms cost via an override, so
            // wall count only shapes collisions.
            Scale::Quick => 2_000,
            Scale::Full => 100_000,
        }
    }

    fn cost_override(self) -> Option<u64> {
        match self {
            Scale::Quick => Some(7_440),
            Scale::Full => None,
        }
    }
}

/// The Table I Manhattan People world at a given client count.
pub fn paper_world(clients: usize, scale: Scale) -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients,
        walls: scale.walls(),
        cost_override_us: scale.cost_override(),
        ..ManhattanConfig::default()
    }))
}

/// The Table I network/workload settings.
pub fn paper_sim(scale: Scale) -> SimConfig {
    SimConfig {
        moves_per_client: scale.moves(),
        ..SimConfig::default()
    }
}

/// The SEVE protocol config used throughout the evaluation.
pub fn paper_protocol(mode: ServerMode) -> ProtocolConfig {
    ProtocolConfig::with_mode(mode)
}

/// Run SEVE (or a variant) on a Manhattan world.
pub fn run_seve(
    world: &Arc<ManhattanWorld>,
    mode: ServerMode,
    proto: ProtocolConfig,
    sim: &SimConfig,
) -> RunResult {
    let suite = SeveSuite::new(ProtocolConfig { mode, ..proto });
    let mut wl = ManhattanWorkload::new(world);
    Simulation::new(Arc::clone(world), &suite, sim.clone()).run(&mut wl)
}

/// Run the Central baseline on a Manhattan world.
pub fn run_central(world: &Arc<ManhattanWorld>, sim: &SimConfig) -> RunResult {
    let suite = CentralSuite::with_interest_radius(world.config().visibility);
    let mut wl = ManhattanWorkload::new(world);
    Simulation::new(Arc::clone(world), &suite, sim.clone()).run(&mut wl)
}

/// Run the Broadcast baseline on a Manhattan world.
pub fn run_broadcast(world: &Arc<ManhattanWorld>, sim: &SimConfig) -> RunResult {
    let suite = BroadcastSuite::default();
    let mut wl = ManhattanWorkload::new(world);
    Simulation::new(Arc::clone(world), &suite, sim.clone()).run(&mut wl)
}

/// Run the RING-like baseline on a Manhattan world.
pub fn run_ring(world: &Arc<ManhattanWorld>, sim: &SimConfig) -> RunResult {
    let suite = RingSuite::new(world.config().visibility);
    let mut wl = ManhattanWorkload::new(world);
    Simulation::new(Arc::clone(world), &suite, sim.clone()).run(&mut wl)
}

/// Table I — the simulation settings, as key/value rows.
pub fn table1() -> Vec<(&'static str, String)> {
    let m = ManhattanConfig::default();
    let p = ProtocolConfig::default();
    let s = SimConfig::default();
    vec![
        ("Virtual world size", format!("{} x {}", m.width, m.height)),
        ("Number of walls", format!("0 - {}", m.walls)),
        ("Number of clients", "0 - 64".to_string()),
        (
            "Average latency (RTT)",
            format!("{:.0}ms", p.rtt.as_ms_f64()),
        ),
        (
            "Maximum bandwidth",
            format!("{}Kbps", s.bandwidth_bps.map(|b| b / 1000).unwrap_or(0)),
        ),
        ("Moves per client", s.moves_per_client.to_string()),
        (
            "Move generation rate",
            format!("Every {:.0}ms per client", s.move_period.as_ms_f64()),
        ),
        ("Move effect range", format!("{}units", m.move_effect_range)),
        ("Avatar visibility", format!("{}units", m.visibility)),
        (
            "Threshold",
            format!("1.5 x Avatar visibility = {}units", p.threshold),
        ),
    ]
}

fn client_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![8, 24, 48, 64],
        Scale::Full => vec![4, 8, 16, 24, 32, 40, 48, 56, 64],
    }
}

/// The Figure 6 / Figure 9 sweep: every protocol at every client count.
/// Returns `(protocol label, clients, result)` tuples; [`fig6`] and
/// [`fig9`] read different columns of the same runs.
pub fn scalability_sweep(scale: Scale) -> Vec<(String, usize, RunResult)> {
    let mut out = Vec::new();
    for &n in &client_counts(scale) {
        let world = paper_world(n, scale);
        let sim = paper_sim(scale);
        out.push(("Central".to_string(), n, run_central(&world, &sim)));
        out.push((
            "SEVE".to_string(),
            n,
            run_seve(
                &world,
                ServerMode::InfoBound,
                paper_protocol(ServerMode::InfoBound),
                &sim,
            ),
        ));
        out.push(("Broadcast".to_string(), n, run_broadcast(&world, &sim)));
    }
    out
}

fn series_from_sweep(
    sweep: &[(String, usize, RunResult)],
    labels: &[&str],
    y: impl Fn(&RunResult) -> f64,
) -> Vec<Series> {
    labels
        .iter()
        .map(|&label| {
            let points = sweep
                .iter()
                .filter(|(l, _, _)| l == label)
                .map(|(_, n, r)| (*n as f64, y(r)))
                .collect();
            Series::new(label, points)
        })
        .collect()
}

/// Figure 6 — response time vs number of clients.
pub fn fig6(scale: Scale) -> Figure {
    let sweep = scalability_sweep(scale);
    fig6_from_sweep(&sweep)
}

/// Figure 6 from an existing sweep (lets the repro binary share runs with
/// Figure 9).
pub fn fig6_from_sweep(sweep: &[(String, usize, RunResult)]) -> Figure {
    Figure {
        id: "fig6".into(),
        title: "Scalability of SEVE vs Central architecture".into(),
        x_label: "clients".into(),
        y_label: "mean response time (ms)".into(),
        series: series_from_sweep(sweep, &["Central", "SEVE", "Broadcast"], |r| {
            r.response_ms.mean()
        }),
        notes: vec![
            "paper: Central and Broadcast break down at ~30-32 clients; SEVE stays flat".into(),
        ],
    }
}

/// Figure 9 — total data transfer vs number of clients.
pub fn fig9(scale: Scale) -> Figure {
    let sweep = scalability_sweep(scale);
    fig9_from_sweep(&sweep)
}

/// Figure 9 from an existing sweep.
pub fn fig9_from_sweep(sweep: &[(String, usize, RunResult)]) -> Figure {
    Figure {
        id: "fig9".into(),
        title: "Total data transfer".into(),
        x_label: "clients".into(),
        y_label: "total transfer (kB)".into(),
        series: series_from_sweep(sweep, &["Central", "SEVE", "Broadcast"], RunResult::total_kb),
        notes: vec![
            "paper: Broadcast is quadratic in clients; SEVE does not differ significantly from Central".into(),
        ],
    }
}

/// Figure 7 — response time vs per-action complexity (25 clients).
pub fn fig7(scale: Scale) -> Figure {
    let costs_ms: Vec<u64> = match scale {
        Scale::Quick => vec![2, 8, 14, 20],
        Scale::Full => vec![1, 4, 7, 10, 13, 16, 19, 22, 25],
    };
    let mut central = Vec::new();
    let mut seve = Vec::new();
    let mut bcast = Vec::new();
    for &ms in &costs_ms {
        let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
            clients: 25,
            walls: scale.walls().min(2_000),
            cost_override_us: Some(ms * 1_000),
            ..ManhattanConfig::default()
        }));
        let sim = paper_sim(scale);
        central.push((ms as f64, run_central(&world, &sim).response_ms.mean()));
        seve.push((
            ms as f64,
            run_seve(
                &world,
                ServerMode::InfoBound,
                paper_protocol(ServerMode::InfoBound),
                &sim,
            )
            .response_ms
            .mean(),
        ));
        bcast.push((ms as f64, run_broadcast(&world, &sim).response_ms.mean()));
    }
    Figure {
        id: "fig7".into(),
        title: "Response Time vs Action Complexity".into(),
        x_label: "per-action cost (ms)".into(),
        y_label: "mean response time (ms)".into(),
        series: vec![
            Series::new("Central", central),
            Series::new("SEVE", seve),
            Series::new("Broadcast", bcast),
        ],
        notes: vec![
            "paper: Central/Broadcast fine below 10 ms per move, then unusable; SEVE unaffected"
                .into(),
        ],
    }
}

/// The Figure 8 / Table II dense-crowd world: 60 avatars in a 250×250
/// area (Section V-B.1). `spacing` sets the crowd density; the paper packed
/// avatars 4 units apart and let them disperse over an hour — we sweep the
/// (post-dispersal) density directly and keep motion slow so it persists.
pub fn dense_world(
    visibility: f64,
    effect_range: f64,
    spacing: f64,
    _scale: Scale,
) -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        width: 250.0,
        height: 250.0,
        walls: 0,
        clients: 60,
        visibility,
        move_effect_range: effect_range,
        speed: 2.0,
        spawn: SpawnPattern::Grid { spacing },
        // The density experiments probe the marginal compute regime the
        // paper describes ("the clients ran out of computational power");
        // a fixed 5 ms per move puts 60 clients × 1 move / 300 ms exactly
        // at one machine's capacity.
        cost_override_us: Some(5_000),
        ..ManhattanConfig::default()
    }))
}

/// The protocol configuration for the dense-crowd experiments: the pushed
/// set is the client's visibility sphere (the reading under which the
/// paper's Figure 8 x-axis — "avatars visible" — is the delivered set),
/// and the chain-breaking threshold is 3× the move effect range.
pub fn dense_protocol(mode: ServerMode, visibility: f64, effect_range: f64) -> ProtocolConfig {
    let mut proto = paper_protocol(mode);
    proto.interest_radius_override = Some(visibility);
    proto.threshold = 3.0 * effect_range;
    proto
}

/// Figure 8 — response time vs avatar density, SEVE with and without move
/// dropping. Density is swept via crowd spacing at the Table I visibility
/// of 30 units; the x-axis is the measured average number of visible
/// avatars, as in the paper.
pub fn fig8(scale: Scale) -> Figure {
    let spacings: Vec<f64> = match scale {
        Scale::Quick => vec![16.0, 8.0, 6.0],
        Scale::Full => vec![20.0, 16.0, 13.0, 11.0, 9.0, 8.0, 7.0, 6.0, 5.0],
    };
    let vis = 30.0;
    let range = 6.0;
    let mut with_drop = Vec::new();
    let mut without_drop = Vec::new();
    let mut drops = Vec::new();
    for &spacing in &spacings {
        let world = dense_world(vis, range, spacing, scale);
        let visible = world.avg_visible(&world.initial_state(), vis);
        let sim = SimConfig {
            moves_per_client: scale.moves().max(60),
            ..SimConfig::default()
        };
        let proto = dense_protocol(ServerMode::InfoBound, vis, range);
        let r_drop = run_seve(&world, ServerMode::InfoBound, proto.clone(), &sim);
        let r_naive = run_seve(&world, ServerMode::FirstBound, proto, &sim);
        with_drop.push((visible, r_drop.response_ms.mean()));
        without_drop.push((visible, r_naive.response_ms.mean()));
        drops.push(format!(
            "spacing {spacing}: avg visible {visible:.2}, dropped {:.2}%",
            r_drop.drop_percent()
        ));
    }
    Figure {
        id: "fig8".into(),
        title: "Effect of increasing density of avatars".into(),
        x_label: "avatars visible (avg)".into(),
        y_label: "mean response time (ms)".into(),
        series: vec![
            Series::new("SEVE (without move dropping)", without_drop),
            Series::new("SEVE (with move dropping)", with_drop),
        ],
        notes: drops
            .into_iter()
            .chain(std::iter::once(
                "paper: naive SEVE bogs down beyond ~35 visible avatars; dropping keeps it stable (1.5-7.5% drops)".into(),
            ))
            .collect(),
    }
}

/// Table II — percentage of moves dropped vs move effect range
/// (visibility 20 units; the paper's extreme-density "worst case").
pub fn table2(scale: Scale) -> Figure {
    let ranges: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 7.0, 11.0],
        Scale::Full => vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0],
    };
    let vis = 20.0;
    let mut points = Vec::new();
    for &range in &ranges {
        let world = dense_world(vis, range, 9.5, scale);
        let sim = SimConfig {
            moves_per_client: scale.moves().max(60),
            ..SimConfig::default()
        };
        // Table I fixes the threshold at 1.5 × visibility for this world.
        let mut proto = dense_protocol(ServerMode::InfoBound, vis, range);
        proto.threshold = 1.5 * vis;
        let r = run_seve(&world, ServerMode::InfoBound, proto, &sim);
        points.push((range, r.drop_percent()));
    }
    Figure {
        id: "table2".into(),
        title: "Percentage of moves dropped (visibility = 20 units)".into(),
        x_label: "move effect range".into(),
        y_label: "% moves dropped".into(),
        series: vec![Series::new("% dropped", points)],
        notes: vec!["paper: 1 -> 0, 3 -> 0, 5 -> 0.01, 7 -> 1.53, 9 -> 4.03, 11 -> 8.87".into()],
    }
}

/// Figure 10 — SEVE vs a RING-like architecture at higher density, plus
/// the consistency measurements the paper's Section III-B argument implies.
pub fn fig10(scale: Scale) -> Figure {
    let counts: Vec<usize> = match scale {
        Scale::Quick => vec![20, 40],
        Scale::Full => vec![20, 30, 40, 50, 60],
    };
    let mut seve = Vec::new();
    let mut ring = Vec::new();
    let mut notes = Vec::new();
    for &n in &counts {
        // Denser clusters: the paper raised average visible avatars to
        // 14.01 for this comparison.
        let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
            clients: n,
            walls: scale.walls(),
            cost_override_us: scale.cost_override().or(None),
            spawn: SpawnPattern::Clustered {
                cluster_size: 16,
                cluster_radius: 18.0,
            },
            ..ManhattanConfig::default()
        }));
        let sim = paper_sim(scale);
        let r_seve = run_seve(
            &world,
            ServerMode::InfoBound,
            paper_protocol(ServerMode::InfoBound),
            &sim,
        );
        let r_ring = run_ring(&world, &sim);
        seve.push((n as f64, r_seve.response_ms.mean()));
        ring.push((n as f64, r_ring.response_ms.mean()));
        notes.push(format!(
            "{n} clients: SEVE violations {} / {} evals; RING violations {} / {} evals",
            r_seve.violations, r_seve.evals_checked, r_ring.violations, r_ring.evals_checked
        ));
        if r_ring.server_compute_us > 0 && n == *counts.last().unwrap() {
            // The paper's "1% runtime overhead" claim concerns the server's
            // closure computation, not end-to-end latency (which also pays
            // the Algorithm 7 tick).
            notes.push(format!(
                "server compute at {n} clients: SEVE {} µs vs RING {} µs ({:+.2}%)",
                r_seve.server_compute_us,
                r_ring.server_compute_us,
                100.0 * (r_seve.server_compute_us as f64 - r_ring.server_compute_us as f64)
                    / r_ring.server_compute_us as f64
            ));
        }
    }
    // Overhead summary at the largest point.
    if let (Some(&(_, ys)), Some(&(_, yr))) = (seve.last(), ring.last()) {
        if yr > 0.0 {
            notes.push(format!(
                "SEVE response overhead over RING at max clients: {:+.2}%",
                100.0 * (ys - yr) / yr
            ));
        }
    }
    Figure {
        id: "fig10".into(),
        title: "SEVE vs RING-like Architecture".into(),
        x_label: "clients".into(),
        y_label: "mean response time (ms)".into(),
        series: vec![Series::new("SEVE", seve), Series::new("RING", ring)],
        notes,
    }
}

/// The in-text server-capacity estimate: "we performed experiments on a
/// single server and determined the limit of our implementation to be
/// about 3500 clients."
///
/// Measures the server compute consumed per client-second at Table I load
/// and extrapolates to 100% utilization.
pub fn server_capacity(scale: Scale) -> (f64, RunResult) {
    let world = paper_world(64, scale);
    let sim = paper_sim(scale);
    let r = run_seve(
        &world,
        ServerMode::InfoBound,
        paper_protocol(ServerMode::InfoBound),
        &sim,
    );
    let capacity = if r.server_utilization > 0.0 {
        64.0 / r.server_utilization
    } else {
        f64::INFINITY
    };
    (capacity, r)
}

/// Ablation: sweep ω, the push-period fraction (Section III-D). Smaller ω
/// means more frequent pushes — lower response, more server work and
/// traffic; the response bound (1+ω)·RTT moves with it.
pub fn ablation_omega(scale: Scale) -> Figure {
    let omegas = match scale {
        Scale::Quick => vec![0.1, 0.5],
        Scale::Full => vec![0.05, 0.1, 0.25, 0.5, 0.75, 0.95],
    };
    let mut response = Vec::new();
    let mut bound = Vec::new();
    let mut notes = Vec::new();
    for &omega in &omegas {
        let world = paper_world(32, scale);
        let sim = paper_sim(scale);
        let mut proto = paper_protocol(ServerMode::InfoBound);
        proto.omega = omega;
        let r = run_seve(&world, ServerMode::InfoBound, proto.clone(), &sim);
        response.push((omega, r.response_ms.mean()));
        bound.push((omega, proto.response_bound_ms()));
        notes.push(format!(
            "omega {omega}: transfer {:.0} kB, server compute {} ms",
            r.total_kb(),
            r.server_compute_us / 1000
        ));
    }
    Figure {
        id: "ablation-omega".into(),
        title: "Push period ω vs response (32 clients)".into(),
        x_label: "omega".into(),
        y_label: "ms".into(),
        series: vec![
            Series::new("measured mean response", response),
            Series::new("(1+omega)*RTT bound", bound),
        ],
        notes,
    }
}

/// Ablation: sweep the Algorithm 7 chain-breaking threshold at fixed high
/// density. Tight thresholds drop aggressively and keep response low;
/// loose thresholds approach the no-dropping collapse.
pub fn ablation_threshold(scale: Scale) -> Figure {
    let thresholds = match scale {
        Scale::Quick => vec![12.0, 45.0],
        Scale::Full => vec![10.0, 15.0, 20.0, 30.0, 45.0, 70.0, 120.0],
    };
    let mut response = Vec::new();
    let mut drops = Vec::new();
    for &thr in &thresholds {
        let world = dense_world(30.0, 6.0, 6.0, scale);
        let sim = SimConfig {
            moves_per_client: scale.moves().max(60),
            ..SimConfig::default()
        };
        let mut proto = dense_protocol(ServerMode::InfoBound, 30.0, 6.0);
        proto.threshold = thr;
        let r = run_seve(&world, ServerMode::InfoBound, proto, &sim);
        response.push((thr, r.response_ms.mean()));
        drops.push((thr, r.drop_percent()));
    }
    Figure {
        id: "ablation-threshold".into(),
        title: "Chain-breaking threshold vs response and drops (dense crowd)".into(),
        x_label: "threshold (units)".into(),
        y_label: "ms / %".into(),
        series: vec![
            Series::new("mean response (ms)", response),
            Series::new("% dropped", drops),
        ],
        notes: vec!["no-drop reference: the same crowd collapses past ~2 s".into()],
    }
}

/// Ablation: the Section IV optimizations' traffic effect on a combat
/// world with ambient insects and flying arrows.
pub fn ablation_optimizations(scale: Scale) -> Figure {
    use seve_world::worlds::combat::{CombatConfig, CombatWorkload, CombatWorld};
    let moves = match scale {
        Scale::Quick => 20,
        Scale::Full => 60,
    };
    let world = Arc::new(CombatWorld::new(CombatConfig {
        clients: 32,
        insect_fraction: 0.375,
        ..CombatConfig::default()
    }));
    let sim = SimConfig {
        moves_per_client: moves,
        ..SimConfig::default()
    };
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (i, (label, interest, culling)) in [
        ("baseline", false, false),
        ("interest filtering", true, false),
        ("velocity culling", false, true),
        ("both", true, true),
    ]
    .into_iter()
    .enumerate()
    {
        let mut proto = paper_protocol(ServerMode::InfoBound);
        proto.interest_filtering = interest;
        proto.velocity_culling = culling;
        let suite = SeveSuite::new(proto);
        let mut wl = CombatWorkload::new(Arc::clone(&world));
        let r = Simulation::new(Arc::clone(&world), &suite, sim.clone()).run(&mut wl);
        assert_eq!(r.violations, 0, "optimizations must preserve Theorem 1");
        series.push((i as f64, r.total_kb()));
        notes.push(format!(
            "{label}: {:.0} kB, mean response {:.1} ms, violations {}",
            r.total_kb(),
            r.response_ms.mean(),
            r.violations
        ));
    }
    Figure {
        id: "ablation-optimizations".into(),
        title: "Section IV optimizations: total transfer (32-client combat, 37% insects)".into(),
        x_label: "0=base 1=interest 2=culling 3=both".into(),
        y_label: "total transfer (kB)".into(),
        series: vec![Series::new("kB", series)],
        notes,
    }
}

/// Extra experiment (quantifying Figure 2's argument): RING's consistency
/// violations as a function of its visibility radius. Bigger visibility
/// means fewer missed causal dependencies — but even generous radii leak,
/// because influence is semantic, not geometric.
pub fn ring_inconsistency(scale: Scale) -> Figure {
    use seve_world::worlds::combat::{CombatConfig, CombatWorkload, CombatWorld};
    let radii: Vec<f64> = match scale {
        Scale::Quick => vec![40.0, 120.0],
        Scale::Full => vec![30.0, 50.0, 80.0, 120.0, 200.0, 400.0],
    };
    let moves = match scale {
        Scale::Quick => 20,
        Scale::Full => 60,
    };
    let world = Arc::new(CombatWorld::new(CombatConfig {
        clients: 24,
        scry_range: 250.0,
        ..CombatConfig::default()
    }));
    let sim = SimConfig {
        moves_per_client: moves,
        ..SimConfig::default()
    };
    let mut points = Vec::new();
    let mut notes = Vec::new();
    for &r in &radii {
        let suite = seve_baselines::RingSuite::new(r);
        let mut wl = CombatWorkload::new(Arc::clone(&world));
        let run = Simulation::new(Arc::clone(&world), &suite, sim.clone()).run(&mut wl);
        let pct = if run.evals_checked > 0 {
            100.0 * run.violations as f64 / run.evals_checked as f64
        } else {
            0.0
        };
        points.push((r, pct));
        notes.push(format!(
            "visibility {r}: {} violations / {} evals, response {:.1} ms",
            run.violations,
            run.evals_checked,
            run.response_ms.mean()
        ));
    }
    // The SEVE reference at the same density: zero, by construction.
    let suite = SeveSuite::new(paper_protocol(ServerMode::InfoBound));
    let mut wl = CombatWorkload::new(Arc::clone(&world));
    let seve = Simulation::new(Arc::clone(&world), &suite, sim).run(&mut wl);
    notes.push(format!(
        "SEVE reference: {} violations / {} evals",
        seve.violations, seve.evals_checked
    ));
    Figure {
        id: "ring-inconsistency".into(),
        title: "RING divergence vs visibility radius (24-client combat, scry range 250)".into(),
        x_label: "visibility radius".into(),
        y_label: "% evaluations diverged".into(),
        series: vec![Series::new("RING", points)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let rows = table1();
        let get = |k: &str| {
            rows.iter()
                .find(|(rk, _)| *rk == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("Virtual world size"), "1000 x 1000");
        assert_eq!(get("Average latency (RTT)"), "238ms");
        assert_eq!(get("Maximum bandwidth"), "100Kbps");
        assert_eq!(get("Move effect range"), "10units");
        assert_eq!(get("Avatar visibility"), "30units");
        assert!(get("Threshold").contains("45"));
    }

    #[test]
    fn dense_world_is_dense() {
        let w = dense_world(20.0, 10.0, 4.0, Scale::Quick);
        let visible = w.avg_visible(&w.initial_state(), 20.0);
        assert!(visible > 10.0, "crowd must be dense, got {visible}");
    }
}
