//! Session reports shared by every threaded backend, plus the plain-text
//! renderers for the server stage profile and client replay-work counters.
//!
//! The TCP runtime and the in-process backend produce the same
//! [`ServerReport`]/[`ClientReport`] structures, so observability that used
//! to be simulator-only — the pipeline [`StageMetrics`] and the replay
//! counters behind the checkpointed log — is surfaced uniformly.

use crate::session::SessionStats;
use seve_core::consistency::ConsistencyOracle;
use seve_core::metrics::{ClientMetrics, ServerMetrics, StageMetrics};
use std::fmt::Write as _;

/// What the server observed over one driven session.
#[derive(Debug)]
pub struct ServerReport {
    /// Engine metrics, including the wall-clock pipeline stage profile.
    pub metrics: ServerMetrics,
    /// Digest of ζ_S at shutdown, if the engine keeps one.
    pub committed_digest: Option<u64>,
    /// Total bytes written to clients (frames, including headers).
    pub bytes_out: u64,
}

impl ServerReport {
    /// The pipeline stage profile (ingress → serialize → analyze → route →
    /// egress wall-clock timings).
    pub fn stage(&self) -> &StageMetrics {
        &self.metrics.stage
    }
}

/// What one client observed over a driven session.
#[derive(Debug)]
pub struct ClientReport {
    /// Engine metrics, including the evaluation records for the
    /// consistency oracle and the replay-work counters.
    pub metrics: ClientMetrics,
    /// Digest of the final stable state ζ_CS.
    pub stable_digest: u64,
    /// Bytes written to the server (frames, including headers).
    pub bytes_out: u64,
    /// Did this client crash mid-run (fault injection) instead of
    /// finishing its workload and draining?
    pub crashed: bool,
    /// What this client's session supervisor did (resequencing, acks,
    /// reconnects). All-zero when the run was fault-free on a substrate
    /// with implicit acks.
    pub session: SessionStats,
}

/// The replay-work counters of one client: out-of-order rebuilds, log
/// entries actually re-applied, checkpoint resumes, and commute splices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayWork {
    /// Protocol-visible out-of-order reconciliations.
    pub rebuilds: u64,
    /// Log entries re-applied during those rebuilds.
    pub entries_replayed: u64,
    /// Rebuilds resumed from an intermediate checkpoint.
    pub checkpoint_hits: u64,
    /// Out-of-order inserts spliced with no replay at all.
    pub commute_hits: u64,
}

impl ClientReport {
    /// The replay-work counters (the PR-4 checkpointed-log observability,
    /// now available from every backend).
    pub fn replay_work(&self) -> ReplayWork {
        ReplayWork {
            rebuilds: self.metrics.replay_rebuilds,
            entries_replayed: self.metrics.replay_entries_replayed,
            checkpoint_hits: self.metrics.replay_checkpoint_hits,
            commute_hits: self.metrics.replay_commute_hits,
        }
    }
}

/// Everything one in-process (or otherwise locally joined) session
/// produced: the server report plus every client's.
#[derive(Debug)]
pub struct SessionReport {
    /// The server's observations.
    pub server: ServerReport,
    /// Per-client observations, in client-id order.
    pub clients: Vec<ClientReport>,
}

impl SessionReport {
    /// Cross-check every client's evaluation records with the Theorem 1
    /// oracle. Drains the records; returns `(records, violations)`.
    pub fn cross_check(&mut self) -> (u64, usize) {
        let mut oracle = ConsistencyOracle::new();
        for c in &mut self.clients {
            for rec in c.metrics.take_eval_records() {
                oracle.observe(&rec);
            }
        }
        (oracle.records(), oracle.violations().len())
    }

    /// Total stable responses observed across clients.
    pub fn responses(&self) -> usize {
        self.clients
            .iter()
            .map(|c| c.metrics.response_ms.count())
            .sum()
    }

    /// Total actions submitted across clients.
    pub fn submitted(&self) -> u64 {
        self.clients.iter().map(|c| c.metrics.submitted).sum()
    }

    /// Aggregate replay work across clients.
    pub fn replay_work(&self) -> ReplayWork {
        let mut w = ReplayWork::default();
        for c in &self.clients {
            let cw = c.replay_work();
            w.rebuilds += cw.rebuilds;
            w.entries_replayed += cw.entries_replayed;
            w.checkpoint_hits += cw.checkpoint_hits;
            w.commute_hits += cw.commute_hits;
        }
        w
    }
}

/// Render the wall-clock pipeline stage profile of one server run.
///
/// Stage timings measure the host implementation, not the simulated cost
/// model, so they vary run to run; callers print this block to stderr to
/// keep figure output byte-stable.
pub fn render_stage_profile(label: &str, stage: &StageMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== pipeline stage profile — {label} ==");
    let _ = writeln!(
        out,
        "  {:<9} {:>10} {:>12} {:>10}",
        "stage", "events", "total ms", "mean µs"
    );
    for (name, p) in [
        ("ingress", &stage.ingress),
        ("serialize", &stage.serialize),
        ("analyze", &stage.analyze),
        ("route", &stage.route),
        ("egress", &stage.egress),
    ] {
        let _ = writeln!(
            out,
            "  {:<9} {:>10} {:>12.3} {:>10.3}",
            name,
            p.events,
            p.micros() / 1_000.0,
            p.mean_us()
        );
    }
    let _ = writeln!(out, "  egress emitted {} messages", stage.egress_msgs);
    let _ = writeln!(
        out,
        "  wire path: {} frames encoded, {} reused (shared payloads), \
         {} pool hits, {} writev batches",
        stage.frames_encoded, stage.frames_reused, stage.pool_hits, stage.writev_batches
    );
    let _ = writeln!(
        out,
        "  closure index: {} entries visited ({} linear-equivalent)",
        stage.closure_entries_visited, stage.closure_entries_linear
    );
    let _ = writeln!(
        out,
        "  analyze index: {} entries visited ({} linear-equivalent)",
        stage.analyze_entries_visited, stage.analyze_entries_linear
    );
    // The session line appears only when the supervisor actually coped
    // with a fault, so fault-free profiles are unchanged (acks alone don't
    // qualify — they flow on every supervised TCP run).
    if stage.session_retransmits
        + stage.session_reconnects
        + stage.session_reaps
        + stage.session_sheds
        > 0
    {
        let _ = writeln!(
            out,
            "  session: {} retransmits, {} acks, {} reconnects, {} reaps, {} sheds",
            stage.session_retransmits,
            stage.session_acks,
            stage.session_reconnects,
            stage.session_reaps,
            stage.session_sheds,
        );
    }
    out
}

/// Render the client-side replay-work counters of one run — the client
/// counterpart of the server index lines in [`render_stage_profile`].
/// `rebuilds` is the protocol-visible out-of-order reconciliation count
/// (unchanged by the optimization); `entries_replayed` is the real work
/// left after the checkpoint chain and the commutativity gate.
pub fn render_replay_work(
    label: &str,
    rebuilds: u64,
    entries_replayed: u64,
    checkpoint_hits: u64,
    commute_hits: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== client replay work — {label} ==");
    let _ = writeln!(
        out,
        "  {rebuilds} rebuilds replayed {entries_replayed} log entries \
         ({:.2} per rebuild)",
        if rebuilds == 0 {
            0.0
        } else {
            entries_replayed as f64 / rebuilds as f64
        }
    );
    let _ = writeln!(
        out,
        "  {checkpoint_hits} resumed from a checkpoint, {commute_hits} commute splices (no replay)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_profile_lists_every_stage() {
        let mut stage = StageMetrics::default();
        stage.ingress.record(2_000);
        stage.egress.record(1_000);
        stage.egress_msgs = 3;
        stage.frames_encoded = 2;
        stage.frames_reused = 1;
        stage.pool_hits = 5;
        stage.writev_batches = 4;
        let text = render_stage_profile("SEVE @ 8 clients", &stage);
        for name in ["ingress", "serialize", "analyze", "route", "egress"] {
            assert!(text.contains(name), "missing stage {name}");
        }
        assert!(text.contains("SEVE @ 8 clients"));
        assert!(text.contains("egress emitted 3 messages"));
        assert!(
            text.contains(
                "2 frames encoded, 1 reused (shared payloads), 5 pool hits, 4 writev batches"
            ),
            "wire-path line missing or malformed"
        );
        assert!(text.contains("closure index"));
        assert!(text.contains("analyze index"));
        assert!(
            !text.contains("session:"),
            "session line only when the supervisor coped with a fault"
        );

        stage.session_acks = 40;
        let text = render_stage_profile("SEVE @ 8 clients", &stage);
        assert!(
            !text.contains("session:"),
            "acks alone don't trigger the session line"
        );
        stage.session_retransmits = 6;
        stage.session_reconnects = 1;
        stage.session_reaps = 2;
        let text = render_stage_profile("SEVE @ 8 clients", &stage);
        assert!(
            text.contains("session: 6 retransmits, 40 acks, 1 reconnects, 2 reaps, 0 sheds"),
            "session line missing or malformed"
        );
    }

    #[test]
    fn replay_work_summarizes_counters() {
        let text = render_replay_work("SEVE @ 8 clients", 4, 20, 3, 2);
        assert!(text.contains("SEVE @ 8 clients"));
        assert!(text.contains("4 rebuilds replayed 20 log entries"));
        assert!(text.contains("5.00 per rebuild"));
        assert!(text.contains("3 resumed from a checkpoint"));
        assert!(text.contains("2 commute splices"));
        let idle = render_replay_work("x", 0, 0, 0, 0);
        assert!(idle.contains("0.00 per rebuild"), "no div-by-zero");
    }

    #[test]
    fn client_report_surfaces_replay_work() {
        let m = ClientMetrics {
            replay_rebuilds: 2,
            replay_entries_replayed: 7,
            replay_checkpoint_hits: 1,
            replay_commute_hits: 1,
            ..ClientMetrics::default()
        };
        let r = ClientReport {
            metrics: m,
            stable_digest: 0,
            bytes_out: 0,
            crashed: false,
            session: SessionStats::default(),
        };
        assert_eq!(
            r.replay_work(),
            ReplayWork {
                rebuilds: 2,
                entries_replayed: 7,
                checkpoint_hits: 1,
                commute_hits: 1
            }
        );
    }
}
