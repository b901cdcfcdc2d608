//! The one place the benchmark reads the program's own public counters
//! (`ServerMetrics`/`StageMetrics`, `ClientMetrics`, `SessionStats`).
//!
//! Everything else in the harness measures from outside. When the metrics
//! registry replaces these hand-threaded fields, this file is the port.

use crate::metrics::Metrics;
use seve_core::metrics::{ClientMetrics, ServerMetrics};
use seve_driver::SessionStats;

/// A flat snapshot of the counters one rep left behind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    // Protocol outcomes.
    pub submitted: u64,
    pub dropped: u64,
    pub installed: u64,
    pub max_queue_len: u64,
    // core.client / core.replay, summed over clients.
    pub evaluations: u64,
    pub reconciliations: u64,
    pub completions_sent: u64,
    pub replay_rebuilds: u64,
    pub replay_entries_replayed: u64,
    pub replay_checkpoint_hits: u64,
    pub replay_commute_hits: u64,
    // core.pipeline stage profile.
    pub ingress_ns: u64,
    pub serialize_ns: u64,
    pub analyze_ns: u64,
    pub route_ns: u64,
    pub egress_ns: u64,
    pub closure_entries_visited: u64,
    pub closure_entries_linear: u64,
    pub analyze_entries_visited: u64,
    pub analyze_parallel_ticks: u64,
    // exec (compute pool; on `loopback` the drain pool is merged in by
    // the program's own report).
    pub exec_width: u64,
    pub exec_tasks: u64,
    pub exec_steals: u64,
    pub exec_busy_ns: u64,
    pub exec_queue_hwm: u64,
    // rt.server (zero off `loopback`).
    pub writev_batches: u64,
    pub pool_hits: u64,
    pub pool_outstanding: u64,
    // rt.wire, as the egress stage counts it (the live mode cannot see the
    // server's frame cache from outside).
    pub frames_encoded: u64,
    pub frames_reused: u64,
    // driver.session: server side plus every client's.
    pub session_acks: u64,
    pub session_retransmits: u64,
    pub session_reconnects: u64,
    pub session_reaps: u64,
    pub session_sheds: u64,
}

impl Counters {
    /// Snapshot the server's metrics and fold in every client's.
    pub fn read<'a>(
        server: &ServerMetrics,
        clients: impl IntoIterator<Item = &'a ClientMetrics>,
        client_sessions: impl IntoIterator<Item = SessionStats>,
    ) -> Self {
        let st = &server.stage;
        let mut c = Counters {
            dropped: server.drops,
            installed: server.installed,
            max_queue_len: server.max_queue_len as u64,
            ingress_ns: st.ingress.nanos,
            serialize_ns: st.serialize.nanos,
            analyze_ns: st.analyze.nanos,
            route_ns: st.route.nanos,
            egress_ns: st.egress.nanos,
            closure_entries_visited: st.closure_entries_visited,
            closure_entries_linear: st.closure_entries_linear,
            analyze_entries_visited: st.analyze_entries_visited,
            analyze_parallel_ticks: st.analyze_parallel_ticks,
            exec_width: st.exec_width,
            exec_tasks: st.exec_tasks,
            exec_steals: st.exec_steals,
            exec_busy_ns: st.exec_busy_nanos,
            exec_queue_hwm: st.exec_queue_hwm,
            writev_batches: st.writev_batches,
            pool_hits: st.pool_hits,
            pool_outstanding: st.pool_outstanding,
            frames_encoded: st.frames_encoded,
            frames_reused: st.frames_reused,
            session_acks: st.session_acks,
            session_retransmits: st.session_retransmits,
            session_reconnects: st.session_reconnects,
            session_reaps: st.session_reaps,
            session_sheds: st.session_sheds,
            ..Counters::default()
        };
        for m in clients {
            c.submitted += m.submitted;
            c.evaluations += m.evaluations;
            c.reconciliations += m.reconciliations;
            c.completions_sent += m.completions_sent;
            c.replay_rebuilds += m.replay_rebuilds;
            c.replay_entries_replayed += m.replay_entries_replayed;
            c.replay_checkpoint_hits += m.replay_checkpoint_hits;
            c.replay_commute_hits += m.replay_commute_hits;
        }
        for s in client_sessions {
            c.session_retransmits += s.retransmits;
            c.session_reconnects += s.reconnects;
            c.session_reaps += s.reaps;
            c.session_sheds += s.sheds;
        }
        c
    }

    /// The session layer's fault-coping work; zero on a clean run.
    pub fn session_coping(&self) -> u64 {
        self.session_retransmits + self.session_reconnects + self.session_reaps + self.session_sheds
    }

    /// Emit the counter-backed per-layer metrics.
    pub fn per_layer(&self, out: &mut Metrics) {
        let share = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut put = |name: &str, v: u64| out.push(name, v as f64);
        put("core.client.evaluations", self.evaluations);
        put("core.client.reconciliations", self.reconciliations);
        put("core.client.completions_sent", self.completions_sent);
        put("core.replay.rebuilds", self.replay_rebuilds);
        put("core.replay.entries_replayed", self.replay_entries_replayed);
        put("core.replay.checkpoint_hits", self.replay_checkpoint_hits);
        put("core.replay.commute_hits", self.replay_commute_hits);
        put("core.closure.entries_visited", self.closure_entries_visited);
        put("core.closure.entries_linear", self.closure_entries_linear);
        put("core.analyze.entries_visited", self.analyze_entries_visited);
        put("core.analyze.parallel_ticks", self.analyze_parallel_ticks);
        put("core.analyze.drops", self.dropped);
        put("core.server.max_queue_len", self.max_queue_len);
        put("core.server.installed", self.installed);
        put("exec.tasks", self.exec_tasks);
        put("exec.steals", self.exec_steals);
        put("exec.queue_hwm", self.exec_queue_hwm);
        put("rt.server.writev_batches", self.writev_batches);
        put("rt.server.pool_hits", self.pool_hits);
        put("rt.server.pool_outstanding", self.pool_outstanding);
        put("driver.session.acks", self.session_acks);
        put("driver.session.retransmits", self.session_retransmits);
        put("driver.session.reconnects", self.session_reconnects);
        put("driver.session.reaps", self.session_reaps);
        put("driver.session.sheds", self.session_sheds);
        put("core.pipeline.ingress_ns", self.ingress_ns);
        put("core.pipeline.serialize_ns", self.serialize_ns);
        put("core.pipeline.analyze_ns", self.analyze_ns);
        put("core.pipeline.route_ns", self.route_ns);
        put("core.pipeline.egress_ns", self.egress_ns);
        put("exec.busy_ns", self.exec_busy_ns);
        out.push(
            "core.replay.commute_share",
            share(self.replay_commute_hits, self.replay_rebuilds),
        );
        out.push(
            "core.analyze.drop_share",
            share(self.dropped, self.submitted),
        );
    }
}
