//! The four workloads: what world, what protocol options, how many clients
//! and moves. Why each exists is in `BENCHMARK.json` and README.md.

use crate::direct::{self, DirectParams};
use crate::live::{self, LiveParams};
use crate::rep::Rep;
use seve_core::{ProtocolConfig, ServerMode};
use seve_net::time::SimDuration;
use seve_world::worlds::combat::{CombatConfig, CombatWorkload, CombatWorld};
use seve_world::worlds::manhattan::{
    ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
};
use seve_world::worlds::Workload;
use std::sync::Arc;
use std::time::Duration;

/// Seeds of the maps (terrain and spawn points). The maps are fixtures:
/// `--seed` drives the *traffic* — the stagger of the move timers and, on
/// `melee`, every client's action dice — not the geography.
///
/// The Manhattan maps are also *uniformly* populated closed worlds, not the
/// clustered or grid-block spawns of the paper's figures: a cluster
/// disperses at a rate that depends on who bumps whom first, so ten runs of
/// a clustered `crowd` differed by 25 % in bytes per action across map seeds
/// and by 10 % across staggers on one map, and timing followed. A uniform
/// closed world keeps its density, so the same ten runs agree within 3 %.
const MANHATTAN_MAP_SEED: u64 = 0x5E4E_2009;
const COMBAT_MAP_SEED: u64 = 0xC0B7;

/// Lanes of the server's compute pool in every workload. Pinned — not
/// left to `nproc` — so the same work is measured on every host.
pub const EXEC_WIDTH: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    Crowd,
    Sprawl,
    Melee,
    Loopback,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Crowd,
        WorkloadId::Sprawl,
        WorkloadId::Melee,
        WorkloadId::Loopback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Crowd => "crowd",
            WorkloadId::Sprawl => "sprawl",
            WorkloadId::Melee => "melee",
            WorkloadId::Loopback => "loopback",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_live(self) -> bool {
        self == WorkloadId::Loopback
    }

    /// Moves per client in a full rep.
    fn moves(self) -> u32 {
        match self {
            WorkloadId::Crowd => 100,
            WorkloadId::Sprawl => 20,
            WorkloadId::Melee => 300,
            WorkloadId::Loopback => 200,
        }
    }
}

/// Table I's protocol settings with the pool width pinned.
fn protocol(exec_width: usize) -> ProtocolConfig {
    ProtocolConfig {
        exec_threads: Some(exec_width),
        analyze_threads: Some(exec_width),
        ..ProtocolConfig::with_mode(ServerMode::InfoBound)
    }
}

fn manhattan(cfg: ManhattanConfig) -> (Arc<ManhattanWorld>, Box<dyn Workload<ManhattanWorld>>) {
    let world = Arc::new(ManhattanWorld::new(cfg));
    let workload = Box::new(ManhattanWorkload::new(&world));
    (world, workload)
}

/// Uniform spawn points for the combat world, drawn from its map seed.
fn combat_spawns(cfg: &CombatConfig) -> Vec<(f64, f64)> {
    let unit =
        |i: u64| (direct::splitmix64(COMBAT_MAP_SEED ^ i) >> 11) as f64 / (1u64 << 53) as f64;
    (0..cfg.clients as u64)
        .map(|c| (unit(2 * c) * cfg.width, unit(2 * c + 1) * cfg.height))
        .collect()
}

/// One rep of `workload`. `scale` shortens the rep (the warm-up runs a
/// tenth of the moves); `exec_width` is [`EXEC_WIDTH`] except for
/// `sprawl`'s width-1 comparison rep.
pub fn run_rep(
    workload: WorkloadId,
    seed: u64,
    scale: f64,
    exec_width: usize,
    traced: bool,
) -> Rep {
    let moves = ((f64::from(workload.moves()) * scale).round() as u32).max(2);
    let direct = DirectParams {
        moves,
        move_period_us: 300_000,
        drain_us: 5_000_000,
        seed,
    };
    match workload {
        WorkloadId::Crowd => direct::run_rep(
            &|| {
                manhattan(ManhattanConfig {
                    width: 140.0,
                    height: 140.0,
                    walls: 160,
                    clients: 128,
                    spawn: SpawnPattern::Uniform,
                    seed: MANHATTAN_MAP_SEED,
                    ..ManhattanConfig::default()
                })
            },
            &protocol(exec_width),
            &direct,
            traced,
        ),
        WorkloadId::Sprawl => direct::run_rep(
            &|| {
                manhattan(ManhattanConfig {
                    width: 4000.0,
                    height: 4000.0,
                    walls: 1000,
                    clients: 1024,
                    spawn: SpawnPattern::Uniform,
                    seed: MANHATTAN_MAP_SEED,
                    ..ManhattanConfig::default()
                })
            },
            &protocol(exec_width),
            &direct,
            traced,
        ),
        WorkloadId::Melee => direct::run_rep(
            &|| {
                let mut cfg = CombatConfig {
                    clients: 256,
                    insect_fraction: 0.25,
                    // Seeds the clients' action dice.
                    seed,
                    ..CombatConfig::default()
                };
                cfg.spawn_positions = Some(combat_spawns(&cfg));
                let world = Arc::new(CombatWorld::new(cfg));
                let workload: Box<dyn Workload<CombatWorld>> =
                    Box::new(CombatWorkload::new(Arc::clone(&world)));
                (world, workload)
            },
            &ProtocolConfig {
                interest_filtering: true,
                velocity_culling: true,
                ..protocol(exec_width)
            },
            &direct,
            traced,
        ),
        // `examples/realnet.rs`'s protocol settings: loopback RTT is
        // microseconds, so the protocol cycles are scaled down to match.
        WorkloadId::Loopback => live::run_rep(
            &|| {
                manhattan(ManhattanConfig {
                    width: 90.0,
                    height: 90.0,
                    walls: 45,
                    clients: 32,
                    spawn: SpawnPattern::Uniform,
                    seed: MANHATTAN_MAP_SEED,
                    ..ManhattanConfig::default()
                })
            },
            &ProtocolConfig {
                rtt: SimDuration::from_ms(20),
                tick: SimDuration::from_ms(5),
                ..protocol(exec_width)
            },
            &LiveParams {
                moves,
                move_period: Duration::from_millis(30),
                cycle: Duration::from_millis(5),
                drain: Duration::from_secs(5),
                seed,
            },
            traced,
        ),
    }
}
