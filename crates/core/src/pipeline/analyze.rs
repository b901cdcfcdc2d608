//! Analyze stage: transitive-closure scans (Algorithm 6) and drop
//! verdicts (Algorithm 7), behind the [`DropPolicy`] trait.
//!
//! The closure scan serves two consumers, each through a helper here that
//! records its workload metrics: [`closure_support`] walks one client's
//! chain for the Incomplete World Model's per-submission replies, and
//! [`closure_support_all`] runs the bounded models' push fan-out as one pass
//! for every client ([`SlicedClosure`]). Their callers lap the stage clock
//! to `analyze` after them (see [`crate::pipeline`]). The drop verdict is a
//! policy: [`NoDrop`] for the Basic / Incomplete / First Bound modes, and
//! [`ChainBreak`] for the Information Bound Model, which walks each newly
//! submitted action's conflict chain and drops actions whose chain reaches
//! farther than the threshold.
//!
//! All of them run over the queue's inverted write index (see
//! [`crate::closure`]), visiting O(conflicts) entries; the stage records
//! indexed-vs-linear entry counters into
//! [`StageMetrics`](crate::metrics::StageMetrics) while the *simulated*
//! cost keeps charging the linear-equivalent scan length, so event timing
//! is identical to the pre-index pipeline.

use crate::closure::{analyze_new_actions, closure_for, ClosureResult, SlicedClosure};
use crate::msg::ToClient;
use crate::pipeline::{serialize, state::PipelineState};
use seve_net::time::SimTime;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::{Action, GameWorld};

/// Compute the transitive support (Algorithm 6) for `candidates` on behalf
/// of `client`, marking the returned positions as sent. Records the
/// closure-scan workload metrics — both the linear-equivalent
/// `scanned` (the simulated cost input, unchanged by the inverted index)
/// and the entries the indexed traversal actually visited.
pub fn closure_support<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    candidates: &[QueuePos],
) -> ClosureResult {
    let result = closure_for(&mut st.queue, client, candidates);
    record_closure(st, &result);
    result
}

/// [`closure_support`] for every client of a push cycle at once:
/// `candidates[c]` are client `c`'s, and the returned slice holds one result
/// per client, equal to what the per-client walk returns for it. The
/// workload metrics are recorded per client with candidates, as the
/// per-client loop recorded them.
pub fn closure_support_all<'s, W: GameWorld>(
    st: &mut PipelineState<W>,
    sliced: &'s mut SlicedClosure,
    candidates: &[Vec<QueuePos>],
) -> &'s [ClosureResult] {
    let results = sliced.run(&mut st.queue, candidates);
    for (result, _) in results
        .iter()
        .zip(candidates)
        .filter(|(_, cands)| !cands.is_empty())
    {
        record_closure(st, result);
    }
    results
}

/// The closure-scan workload metrics of one client's result.
fn record_closure<W: GameWorld>(st: &mut PipelineState<W>, result: &ClosureResult) {
    st.metrics
        .closure_scan_entries
        .record(result.scanned as f64);
    st.metrics.stage.closure_entries_visited += result.visited as u64;
    st.metrics.stage.closure_entries_linear += result.scanned as u64;
}

/// When (and whether) queued actions are dropped, and consequently how far
/// the push horizon may advance.
pub trait DropPolicy<W: GameWorld>: Send {
    /// Per-tick analysis over newly submitted actions. Appends drop notices
    /// to `out`; returns the simulated compute cost in microseconds.
    fn analyze(
        &mut self,
        _st: &mut PipelineState<W>,
        _now: SimTime,
        _out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        0
    }

    /// The highest position eligible for pushing. With dropping on, only
    /// analysis-cleared actions may be pushed (an action pushed before its
    /// Algorithm 7 verdict could later be dropped — but it would already
    /// have been applied by some replicas).
    fn horizon(&self, st: &PipelineState<W>) -> QueuePos {
        st.queue.last_pos().unwrap_or(0)
    }
}

/// No dropping: every action eventually commits (Basic, Incomplete, First
/// Bound). The push horizon is the queue tail.
pub struct NoDrop;

impl<W: GameWorld> DropPolicy<W> for NoDrop {}

/// Algorithm 7 chain-breaking (the Information Bound Model): per tick,
/// walk each new action's conflict chain and drop actions whose chain
/// reaches farther than the configured threshold.
#[derive(Default)]
pub struct ChainBreak {
    /// Every position at or below this has passed Algorithm 7 analysis.
    analyzed_upto: QueuePos,
}

impl ChainBreak {
    /// A fresh analyzer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<W: GameWorld> DropPolicy<W> for ChainBreak {
    fn analyze(
        &mut self,
        st: &mut PipelineState<W>,
        _now: SimTime,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        // Algorithm 7's onNextTick over actions submitted since last tick.
        let from = (self.analyzed_upto + 1).max(st.queue.first_pos());
        let threshold = st.cfg.threshold;
        let analysis = analyze_new_actions(&mut st.queue, from, threshold, &mut st.analyze_scratch);
        st.metrics.stage.analyze_entries_visited += analysis.visited as u64;
        st.metrics.stage.analyze_entries_linear += analysis.scanned as u64;
        for &len in &analysis.chain_lens {
            st.metrics.chain_len.record(len as f64);
        }
        for &pos in &analysis.dropped {
            st.metrics.drops += 1;
            // Drop notices are personal: always their own frame.
            st.metrics.stage.frames_encoded += 1;
            let e = st.queue.get(pos).expect("just analyzed");
            out.push((
                e.action.issuer(),
                ToClient::Dropped {
                    id: e.action.id(),
                    pos,
                },
            ));
        }
        if !analysis.dropped.is_empty() {
            // A newly dropped front entry commits as a no-op.
            serialize::try_install(st);
            serialize::maybe_gc_notice(st, out);
        }
        self.analyzed_upto = st.queue.last_pos().unwrap_or(self.analyzed_upto);
        st.scan_cost(analysis.scanned)
    }

    fn horizon(&self, _st: &PipelineState<W>) -> QueuePos {
        self.analyzed_upto
    }
}
