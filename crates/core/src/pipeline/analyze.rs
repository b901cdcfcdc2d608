//! Analyze stage: transitive-closure scans (Algorithm 6) and drop
//! verdicts (Algorithm 7), behind the [`DropPolicy`] trait.
//!
//! The closure scan serves two consumers, each through a stage-timed helper
//! here: [`closure_support`] walks one client's chain for the Incomplete
//! World Model's per-submission replies, and [`closure_support_all`] runs
//! the bounded models' push fan-out as one pass for every client
//! ([`SlicedClosure`]), booking the whole pass to the analyze stage once
//! per push cycle. The drop verdict is a
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

use crate::closure::{analyze_new_actions_batched, closure_for, ClosureResult, SlicedClosure};
use crate::msg::ToClient;
use crate::pipeline::{serialize, state::PipelineState};
use seve_net::time::SimTime;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::{Action, GameWorld};
use std::time::Instant;

/// Seed for the analyze stage's adaptive parallel gate: the historical
/// static "fan out above this many new actions per tick" constant. The
/// gate self-tunes around it from measured sequential vs. parallel cost
/// (see [`seve_exec::AdaptiveGate`]); pin with `SEVE_PAR_MIN_ACTIONS` or
/// disable adaptation via `ProtocolConfig::adaptive_gates` to hold it
/// static.
const PAR_MIN_ACTIONS: usize = 64;

/// Compute the transitive support (Algorithm 6) for `candidates` on behalf
/// of `client`, marking the returned positions as sent. Stage-timed; also
/// records the closure-scan workload metrics — both the linear-equivalent
/// `scanned` (the simulated cost input, unchanged by the inverted index)
/// and the entries the indexed traversal actually visited.
pub fn closure_support<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    candidates: &[QueuePos],
) -> ClosureResult {
    let t = Instant::now();
    let result = closure_for(&mut st.queue, client, candidates);
    record_closure(st, &result);
    st.metrics
        .stage
        .analyze
        .record(t.elapsed().as_nanos() as u64);
    result
}

/// [`closure_support`] for every client of a push cycle at once:
/// `candidates[c]` are client `c`'s, and the returned slice holds one result
/// per client, equal to what the per-client walk returns for it. One stage
/// record covers the whole pass; the workload metrics are recorded per
/// client with candidates, as the per-client loop recorded them.
pub fn closure_support_all<'s, W: GameWorld>(
    st: &mut PipelineState<W>,
    sliced: &'s mut SlicedClosure,
    candidates: &[Vec<QueuePos>],
) -> &'s [ClosureResult] {
    let t = Instant::now();
    let results = sliced.run(&mut st.queue, candidates);
    for (result, _) in results
        .iter()
        .zip(candidates)
        .filter(|(_, cands)| !cands.is_empty())
    {
        record_closure(st, result);
    }
    st.metrics
        .stage
        .analyze
        .record(t.elapsed().as_nanos() as u64);
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
pub struct ChainBreak {
    /// Every position at or below this has passed Algorithm 7 analysis.
    analyzed_upto: QueuePos,
    /// Self-tuning "parallelize above N actions" gate, seeded with the
    /// historical [`PAR_MIN_ACTIONS`]. Chooses the execution strategy
    /// only; verdicts are bit-identical either way.
    gate: seve_exec::AdaptiveGate,
}

impl ChainBreak {
    /// A fresh analyzer.
    pub fn new() -> Self {
        Self {
            analyzed_upto: 0,
            gate: seve_exec::AdaptiveGate::new(PAR_MIN_ACTIONS, "SEVE_PAR_MIN_ACTIONS"),
        }
    }
}

impl Default for ChainBreak {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: GameWorld> DropPolicy<W> for ChainBreak {
    fn analyze(
        &mut self,
        st: &mut PipelineState<W>,
        _now: SimTime,
        out: &mut Vec<(ClientId, ToClient<W::Action>)>,
    ) -> u64 {
        // Algorithm 7's onNextTick over actions submitted since last tick,
        // batched by footprint-disjoint component onto worker threads when
        // the tick is large enough to pay for the fan-out. Outcomes are
        // bit-identical to the sequential oracle either way.
        let from = (self.analyzed_upto + 1).max(st.queue.first_pos());
        let batch = (st
            .queue
            .last_pos()
            .map_or(0, |l| l + 1)
            .saturating_sub(from)) as usize;
        let width = st.exec.width();
        let adaptive = st.cfg.adaptive_gates;
        let threads = if batch >= self.gate.threshold(width, adaptive) {
            st.analyze_threads
        } else {
            1
        };
        let PipelineState {
            ref mut queue,
            ref mut analyze_scratch,
            ref cfg,
            ref exec,
            ..
        } = *st;
        let t0 = Instant::now();
        let analysis = analyze_new_actions_batched(
            queue,
            from,
            cfg.threshold,
            threads,
            analyze_scratch,
            exec.as_ref(),
        );
        // Feed the gate the measurement it needs for the strategy it ran:
        // parallel runs yield both the overhead (wall − busy/width) and a
        // per-item cost estimate (busy/n); sequential runs refresh the
        // per-item cost directly.
        let gate_wall = t0.elapsed().as_nanos() as u64;
        if analysis.par_workers > 1 {
            self.gate.record_par(
                batch,
                gate_wall,
                analysis.worker_busy_nanos,
                width.min(analysis.par_workers),
            );
        } else if batch > 0 {
            self.gate.record_seq(batch, gate_wall);
        }
        st.metrics.stage.analyze_entries_visited += analysis.visited as u64;
        st.metrics.stage.analyze_entries_linear += analysis.scanned as u64;
        if analysis.par_workers > 1 {
            st.metrics.stage.analyze_parallel_ticks += 1;
            st.metrics.stage.analyze_components += analysis.components as u64;
            st.metrics.stage.analyze_worker_busy_nanos += analysis.worker_busy_nanos;
            st.metrics.stage.analyze_max_batch = st
                .metrics
                .stage
                .analyze_max_batch
                .max(analysis.max_batch as u64);
        }
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
