//! # SEVE — Scalable Engine for Virtual Environments
//!
//! A complete Rust reproduction of *"Scalability for Virtual Worlds"*
//! (Gupta, Demers, Gehrke, Unterbrunner, White — ICDE 2009): action-based
//! consistency protocols that push game-logic execution to the clients
//! while a thin server timestamps, routes, and bounds conflicts using
//! application semantics.
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`world`] | `seve-world` | world-state database, actions, geometry, the three game worlds |
//! | [`net`] | `seve-net` | discrete-event kernel, links, statistics |
//! | [`core`] | `seve-core` | the four action-protocol variants, closure & bound machinery |
//! | [`baselines`] | `seve-baselines` | Central, Broadcast, RING, locking, timestamp ordering |
//! | [`driver`] | `seve-driver` | the transport-agnostic node driver: clocks, timers, transports, fault injection, the sim backend |
//! | [`sim`] | `seve-sim` | the EMULab-substitute harness and every paper experiment |
//! | [`rt`] | `seve-rt` | the threaded runtime with its binary wire format, over TCP or in-process pipes |
//!
//! ## Quickstart
//!
//! ```
//! use seve::prelude::*;
//! use std::sync::Arc;
//!
//! // A small Manhattan People world (Section V's synthetic workload).
//! let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
//!     clients: 8,
//!     walls: 500,
//!     ..ManhattanConfig::default()
//! }));
//!
//! // SEVE = Incomplete World + First Bound pushes + Information Bound drops.
//! let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
//! let mut workload = ManhattanWorkload::new(&world);
//!
//! let sim = SimConfig { moves_per_client: 10, ..SimConfig::default() };
//! let result = Simulation::new(world, &suite, sim).run(&mut workload);
//!
//! assert_eq!(result.violations, 0, "Theorem 1");
//! println!("mean response: {:.1} ms", result.response_ms.mean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use seve_baselines as baselines;
pub use seve_core as core;
pub use seve_driver as driver;
pub use seve_net as net;
pub use seve_rt as rt;
pub use seve_sim as sim;
pub use seve_world as world;

/// The commonly-used names, one `use` away.
pub mod prelude {
    pub use seve_baselines::{
        BroadcastSuite, CentralSuite, LockingSuite, RingSuite, TimestampSuite,
    };
    pub use seve_core::config::{ProtocolConfig, ServerMode};
    pub use seve_core::consistency::ConsistencyOracle;
    pub use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
    pub use seve_core::server::SeveSuite;
    pub use seve_core::SeveClient;
    pub use seve_driver::{
        FaultPlan, FaultPolicy, LinkPartition, NodeDriver, SessionParams, SessionStats, ShedPolicy,
    };
    pub use seve_net::stats::Summary;
    pub use seve_net::time::{SimDuration, SimTime};
    pub use seve_rt::{run_inproc_session, SessionConfig};
    pub use seve_sim::{RunResult, SimConfig, Simulation};
    pub use seve_world::worlds::combat::{CombatConfig, CombatWorkload, CombatWorld};
    pub use seve_world::worlds::dining::{DiningConfig, DiningWorkload, DiningWorld};
    pub use seve_world::worlds::manhattan::{
        ManhattanConfig, ManhattanWorkload, ManhattanWorld, SpawnPattern,
    };
    pub use seve_world::worlds::trade::{TradeConfig, TradeWorkload, TradeWorld};
    pub use seve_world::worlds::Workload;
    pub use seve_world::{Action, ActionId, ClientId, GameWorld, ObjectId, Outcome, WorldState};
}
