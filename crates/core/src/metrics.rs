//! Metrics collected by the protocol engines.
//!
//! The experiment harness reads these after (or during) a run to produce
//! the paper's series: response times (Figures 6, 7, 8, 10), drop
//! percentages (Table II), closure-scan work (the 0.04 ms claim), and
//! evaluation records for the consistency oracle.

use seve_net::stats::{RunningSummary, Summary};
use seve_world::ids::{ActionId, QueuePos};

/// A record of one stable evaluation performed by a replica, used by the
/// consistency oracle ([`crate::consistency`]) to verify that every replica
/// computed identical results for every serialized action — the observable
/// content of Theorem 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalRecord {
    /// Queue position of the evaluated action.
    pub pos: QueuePos,
    /// Identity of the evaluated action.
    pub id: ActionId,
    /// Digest of the outcome (writes + abort flag).
    pub digest: u64,
    /// Digest of the read-set inputs the evaluation saw (diagnostic: the
    /// first position whose inputs diverge across replicas is the root
    /// cause of any downstream outcome mismatch).
    pub input_digest: u64,
    /// Number of declared read-set objects that were missing from the
    /// replica's state at evaluation time. Non-zero values mean the replica
    /// evaluated with incomplete information — the failure mode of
    /// visibility-filtered systems (Section III-B).
    pub missing_reads: u32,
}

/// Per-client metrics.
#[derive(Clone, Debug, Default)]
pub struct ClientMetrics {
    /// The owning client's index (diagnostic labelling).
    pub owner: u16,
    /// Response time of own actions, milliseconds: from submission to
    /// learning the stable result (the action coming back from the server
    /// and being evaluated against ζ_CS).
    pub response_ms: Summary,
    /// Time to learn an own action was dropped, milliseconds.
    pub drop_notice_ms: Summary,
    /// Actions submitted.
    pub submitted: u64,
    /// Own actions dropped by the server (Algorithm 7).
    pub dropped: u64,
    /// Stable evaluations performed (including re-evaluations on replay
    /// rebuilds).
    pub evaluations: u64,
    /// Total simulated compute charged, microseconds.
    pub compute_us: u64,
    /// Optimistic/stable mismatches that triggered Algorithm 3.
    pub reconciliations: u64,
    /// Replay-log rebuilds caused by out-of-order item arrival.
    pub replay_rebuilds: u64,
    /// Re-evaluations during rebuilds that produced a different outcome —
    /// a violation of the Algorithm 6 closure contract; must stay zero.
    pub replay_divergences: u64,
    /// Log entries re-applied during rebuilds — the real host-side work
    /// behind `replay_rebuilds` (checkpoints shrink this; the
    /// protocol-visible rebuild count is unchanged).
    pub replay_entries_replayed: u64,
    /// Rebuilds that started from an intermediate checkpoint rather than
    /// base.
    pub replay_checkpoint_hits: u64,
    /// Out-of-order inserts spliced in place because their write set
    /// commutes with the whole log suffix (no replay at all).
    pub replay_commute_hits: u64,
    /// Batches received.
    pub batches: u64,
    /// Completion messages sent.
    pub completions_sent: u64,
    /// Evaluation records for the consistency oracle (drained by the
    /// harness; only first-time evaluations, not rebuild re-evaluations).
    pub eval_records: Vec<EvalRecord>,
}

impl ClientMetrics {
    /// Drain the accumulated evaluation records.
    pub fn take_eval_records(&mut self) -> Vec<EvalRecord> {
        std::mem::take(&mut self.eval_records)
    }
}

/// Wall-clock profile of one pipeline stage: how often it ran and how much
/// real time it consumed. Distinct from the *simulated* cost model
/// (`compute_us`): stage profiles measure the host implementation and are
/// never fed back into the simulation, so the event order stays
/// deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageProfile {
    /// Invocations of the stage.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside the stage.
    pub nanos: u64,
}

impl StageProfile {
    /// Record one invocation that took `nanos` wall-clock nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.events += 1;
        self.nanos += nanos;
    }

    /// Total stage time in microseconds.
    pub fn micros(&self) -> f64 {
        self.nanos as f64 / 1_000.0
    }

    /// Mean microseconds per invocation.
    pub fn mean_us(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.micros() / self.events as f64
        }
    }
}

/// Per-stage instrumentation of the server pipeline
/// ([`crate::pipeline`]): ingress → serialize → analyze → route → egress.
#[derive(Clone, Debug, Default)]
pub struct StageMetrics {
    /// Timestamp + enqueue.
    pub ingress: StageProfile,
    /// Commit-order install of completions into ζ_S, plus GC notices.
    pub serialize: StageProfile,
    /// Transitive-closure scans and Algorithm 7 drop verdicts.
    pub analyze: StageProfile,
    /// Candidate selection: Eq. 1 spheres, interest classes, velocity
    /// culling, catch-up spans.
    pub route: StageProfile,
    /// Batch assembly and hand-off: blind writes, `sent` tracking,
    /// per-client FIFO order.
    pub egress: StageProfile,
    /// Messages egress emitted.
    pub egress_msgs: u64,
    /// Messages whose wire payload was built fresh — one per distinct
    /// frame. Counted logically at the egress stage, so the split is
    /// identical across {sim, inproc, tcp}; the TCP transport performs at
    /// most this many encodes (fewer when a recipient disconnected before
    /// the drain, since frames addressed only to gone writers are skipped).
    pub frames_encoded: u64,
    /// Messages that shared an already-built payload (encode-once
    /// fan-out): span-cache hits and broadcast copies past the first.
    /// `frames_encoded + frames_reused` = total messages emitted.
    pub frames_reused: u64,
    /// Encode buffers served from the transport's recycle pool. In steady
    /// state this tracks the transport's encode count — the zero-allocation
    /// claim the bench smoke check asserts.
    pub pool_hits: u64,
    /// Vectored-write batches the transport drained (syscall-level egress;
    /// zero for simulated backends).
    pub writev_batches: u64,
    /// Queue entries the index-driven Algorithm 6 traversals actually
    /// visited (host-side work of the inverted conflict index).
    pub closure_entries_visited: u64,
    /// Queue entries the pre-index linear Algorithm 6 scans would have
    /// examined — the denominator for the index's win, and what the
    /// simulated cost model still charges.
    pub closure_entries_linear: u64,
    /// Entries visited by index-driven Algorithm 7 chain walks.
    pub analyze_entries_visited: u64,
    /// Linear-equivalent Algorithm 7 scan length.
    pub analyze_entries_linear: u64,
    /// Always 0: Algorithm 7 runs sequentially on the server thread. Kept
    /// only because the end-to-end benchmark (`bench/src`) reads it.
    pub analyze_parallel_ticks: u64,
    /// Always 0: there is no compute executor. Kept only because the
    /// end-to-end benchmark reads it.
    pub exec_width: u64,
    /// Always 0: no executor runs tasks (the TCP server writes its
    /// sockets on the engine thread). Kept only because the end-to-end
    /// benchmark reads it.
    pub exec_tasks: u64,
    /// Always 0, like `exec_tasks`. Kept only because the end-to-end
    /// benchmark reads it.
    pub exec_steals: u64,
    /// Always 0, like `exec_tasks`. Kept only because the end-to-end
    /// benchmark reads it.
    pub exec_busy_nanos: u64,
    /// Always 0, like `exec_tasks`. Kept only because the end-to-end
    /// benchmark reads it.
    pub exec_queue_hwm: u64,
    /// Pooled encode buffers still checked out at report time. Non-zero
    /// after a drained shutdown means the transport leaked buffers.
    pub pool_outstanding: u64,
    /// Down-lane frames the session supervisor resent to catch a resumed
    /// client up. Zero on a fault-free run.
    pub session_retransmits: u64,
    /// Cumulative acknowledgements the session supervisor processed.
    pub session_acks: u64,
    /// Resume handshakes accepted after a reconnect. Zero on a fault-free
    /// run.
    pub session_reconnects: u64,
    /// Client lanes reaped by the liveness supervisor (a lost connection
    /// never resumed, or a client silent while it owed an ack). Zero on a
    /// fault-free run.
    pub session_reaps: u64,
    /// Overload responses: evicted lanes or thinned push cycles. Zero on
    /// a fault-free run.
    pub session_sheds: u64,
}

/// Per-server metrics.
#[derive(Clone, Debug, Default)]
pub struct ServerMetrics {
    /// Actions received for serialization.
    pub submissions: u64,
    /// Actions dropped by Algorithm 7.
    pub drops: u64,
    /// Actions installed into ζ_S (completions applied in order).
    pub installed: u64,
    /// Client messages refused without effect: a submission naming an
    /// object id outside the world, or a completion writing an object its
    /// action did not declare in `WS`.
    pub refused: u64,
    /// Queue entries touched per closure computation (the transitive
    /// closure cost the paper reports as 0.04 ms per move). Recorded per
    /// client per push cycle for as long as the server runs, so only the
    /// count, sum, minimum and maximum are kept, not the samples.
    pub closure_scan_entries: RunningSummary,
    /// Number of items per push/reply batch; count, sum, minimum and
    /// maximum kept (one sample per emitted batch).
    pub batch_items: RunningSummary,
    /// Conflict-chain length observed per Algorithm 7 analysis; count, sum,
    /// minimum and maximum kept (one sample per analyzed action).
    pub chain_len: RunningSummary,
    /// Total simulated compute charged, microseconds.
    pub compute_us: u64,
    /// High-water mark of the uncommitted action queue.
    pub max_queue_len: usize,
    /// Wall-clock pipeline stage profile (diagnostic; not part of the
    /// simulated cost model).
    pub stage: StageMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::ids::ClientId;

    #[test]
    fn take_eval_records_drains() {
        let mut m = ClientMetrics::default();
        m.eval_records.push(EvalRecord {
            pos: 1,
            id: ActionId::new(ClientId(0), 0),
            digest: 42,
            input_digest: 0,
            missing_reads: 0,
        });
        let drained = m.take_eval_records();
        assert_eq!(drained.len(), 1);
        assert!(m.eval_records.is_empty());
    }

    #[test]
    fn defaults_are_zeroed() {
        let m = ClientMetrics::default();
        assert_eq!(m.submitted, 0);
        assert!(m.response_ms.is_empty());
        let s = ServerMetrics::default();
        assert_eq!(s.installed, 0);
        assert_eq!(s.refused, 0);
        assert_eq!(s.max_queue_len, 0);
        assert_eq!(s.stage.ingress.events, 0);
        assert_eq!(s.stage.frames_encoded, 0);
        assert_eq!(s.stage.frames_reused, 0);
        assert_eq!(s.stage.pool_hits, 0);
        assert_eq!(s.stage.writev_batches, 0);
        assert_eq!(s.stage.closure_entries_visited, 0);
        assert_eq!(s.stage.analyze_entries_linear, 0);
        assert_eq!(s.stage.analyze_parallel_ticks, 0);
        assert_eq!(s.stage.exec_width, 0);
        assert_eq!(s.stage.exec_tasks, 0);
        assert_eq!(s.stage.exec_steals, 0);
        assert_eq!(s.stage.exec_busy_nanos, 0);
        assert_eq!(s.stage.exec_queue_hwm, 0);
        assert_eq!(s.stage.pool_outstanding, 0);
        assert_eq!(s.stage.session_retransmits, 0);
        assert_eq!(s.stage.session_acks, 0);
        assert_eq!(s.stage.session_reconnects, 0);
        assert_eq!(s.stage.session_reaps, 0);
        assert_eq!(s.stage.session_sheds, 0);
    }

    #[test]
    fn stage_profile_accumulates() {
        let mut p = StageProfile::default();
        p.record(1_500);
        p.record(500);
        assert_eq!(p.events, 2);
        assert_eq!(p.nanos, 2_000);
        assert!((p.micros() - 2.0).abs() < 1e-12);
        assert!((p.mean_us() - 1.0).abs() < 1e-12);
    }
}
