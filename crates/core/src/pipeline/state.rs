//! The mutable server state every pipeline stage operates on.
//!
//! One struct owns everything the stages share — the uncommitted action
//! queue, the authoritative state ζ_S, the per-client version tables, and
//! the metrics sink. Stages are functions (and policy objects) over this
//! state rather than owners of slices of it: the serializer pipeline is a
//! flow of control, not a partition of data, because the queue is touched
//! by every stage (ingress appends, serialize pops, analyze marks drops,
//! route reads spheres, egress clones actions and flips `sent` bits).

use crate::closure::{ActionQueue, AnalyzeScratch, ObjectIdMap};
use crate::config::ProtocolConfig;
use crate::metrics::ServerMetrics;
use seve_world::ids::{ActionId, QueuePos};
use seve_world::objset::ObjectSet;
use seve_world::state::WorldState;
use seve_world::GameWorld;
use std::collections::HashSet;
use std::sync::Arc;

/// Shared state of the staged server pipeline.
pub struct PipelineState<W: GameWorld> {
    /// The world definition (for semantics and positions).
    pub world: Arc<W>,
    /// The protocol configuration.
    pub cfg: ProtocolConfig,
    /// ζ_S — the authoritative committed state (Algorithm 5 step 1).
    pub zeta_s: WorldState,
    /// The last position installed into ζ_S.
    pub last_committed: QueuePos,
    /// One past the largest object id of the world's initial state. Every
    /// object id a client names must lie below it: ζ_S is a table as long
    /// as the largest id written into it, so a peer must not choose that
    /// length.
    pub(crate) object_bound: usize,
    /// The queue of uncommitted actions.
    pub queue: ActionQueue<W::Action>,
    /// Metrics sink.
    pub metrics: ServerMetrics,
    /// The last position for which a GC notice was broadcast.
    pub(crate) last_gc_sent: QueuePos,
    /// Position of the last *installed* writer of each object — the
    /// committed version used to suppress redundant blind writes. Probed
    /// per blind-set object of every pushed batch, hence the one-multiply
    /// hasher of the write index.
    pub(crate) committed_version: ObjectIdMap<QueuePos>,
    /// Per client: the newest writer position (action sent or blind write)
    /// whose value for an object the client is known to hold. Lets egress
    /// skip blind writes for values the client already has. Probed per
    /// written object of every pushed item (same hasher).
    pub(crate) client_known: Vec<ObjectIdMap<QueuePos>>,
    /// Every action id ever admitted. Serialization assigns one queue
    /// position per action, so a submission redelivered by an
    /// at-least-once transport must be ignored, not enqueued again.
    pub(crate) admitted: HashSet<ActionId>,
    /// Reusable analyze-stage buffers, cleared (not freed) between ticks.
    pub(crate) analyze_scratch: AnalyzeScratch,
}

impl<W: GameWorld> PipelineState<W> {
    /// Fresh state over `world`.
    pub fn new(world: Arc<W>, cfg: ProtocolConfig) -> Self {
        let n = world.num_clients();
        let zeta_s = world.initial_state();
        let object_bound = zeta_s.iter().last().map_or(0, |(id, _)| id.index() + 1);
        Self {
            zeta_s,
            last_committed: 0,
            object_bound,
            queue: ActionQueue::new(),
            metrics: ServerMetrics::default(),
            last_gc_sent: 0,
            committed_version: ObjectIdMap::default(),
            client_known: vec![ObjectIdMap::default(); n],
            admitted: HashSet::new(),
            analyze_scratch: AnalyzeScratch::new(),
            world,
            cfg,
        }
    }

    /// Number of participating clients.
    pub fn num_clients(&self) -> usize {
        self.world.num_clients()
    }

    /// Does every id of `set` name an object of the world?
    pub(crate) fn in_world(&self, set: &ObjectSet) -> bool {
        // Ids ascend, so the last is the largest.
        set.as_slice()
            .last()
            .is_none_or(|o| o.index() < self.object_bound)
    }

    /// Charge the scan-cost model for `entries` queue entries examined.
    pub fn scan_cost(&self, entries: usize) -> u64 {
        (self.cfg.scan_cost_us_per_entry * entries as f64) as u64
    }
}
