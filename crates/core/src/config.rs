//! Protocol configuration.
//!
//! One [`ProtocolConfig`] parameterizes every protocol variant; the
//! [`ServerMode`] selects which server algorithm runs. Defaults reproduce
//! Table I of the paper.

use seve_net::time::SimDuration;

/// Which server algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ServerMode {
    /// The basic action protocol (Algorithm 2): every action is sent to
    /// every client on its next submission. Strong consistency, one round
    /// trip, no scalability.
    Basic,
    /// The Incomplete World Model (Algorithms 5 + 6): per-submission
    /// transitive-closure replies with blind writes; completion messages
    /// build the authoritative state ζ_S.
    Incomplete,
    /// The First Bound Model (Section III-D): proactive pushes every ω·RTT
    /// of all actions passing the Eq. 1 conflict-sphere test, plus their
    /// transitive support. Response bounded by (1+ω)·RTT — but closure
    /// sizes are unbounded (Section III-E).
    FirstBound,
    /// The Information Bound Model (Algorithm 7): First Bound pushes plus
    /// per-tick chain analysis that *drops* actions whose conflict chain
    /// reaches farther than `threshold` (Eq. 2). This is SEVE as evaluated.
    InfoBound,
}

impl ServerMode {
    /// Does this mode push proactively every ω·RTT?
    pub fn pushes(self) -> bool {
        matches!(self, ServerMode::FirstBound | ServerMode::InfoBound)
    }

    /// Does this mode drop chain-breaking actions (Algorithm 7)?
    pub fn drops(self) -> bool {
        matches!(self, ServerMode::InfoBound)
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ServerMode::Basic => "action-basic",
            ServerMode::Incomplete => "incomplete-world",
            ServerMode::FirstBound => "first-bound",
            ServerMode::InfoBound => "info-bound",
        }
    }
}

/// Tunables shared by all protocol variants. Defaults are Table I.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProtocolConfig {
    /// Which server algorithm runs.
    pub mode: ServerMode,
    /// The round-trip time the bound models assume (`RTT`, Table I: 238 ms).
    /// This is `RTT_max` when client latencies vary.
    pub rtt: SimDuration,
    /// The simulation tick τ — the interval of Algorithm 7's
    /// `onNextTick` analysis.
    pub tick: SimDuration,
    /// ω ∈ (0, 1): the push period is ω·RTT and the response bound is
    /// (1+ω)·RTT (Section III-D).
    pub omega: f64,
    /// The chain-breaking distance threshold of Algorithm 7 (Table I:
    /// 1.5 × avatar visibility).
    pub threshold: f64,
    /// Send completion messages for *every* applied action, not only own
    /// actions — the client-failure-tolerance option of Section III-C.
    pub redundant_completions: bool,
    /// Enable inconsequential-action elimination (Section IV-A): filter
    /// pushed actions by the receiving client's interest mask.
    pub interest_filtering: bool,
    /// Enable area culling (Section IV-B): use an action's velocity vector
    /// to predict its influence position instead of its static sphere.
    pub velocity_culling: bool,
    /// If set, replace the Eq. 1 candidate test with a plain sphere of this
    /// radius around the client — "push me what happens within my
    /// visibility". This is how the paper's density experiment (Figure 8)
    /// scales delivered actions with the visibility radius; `None` uses the
    /// principled Eq. 1 test.
    pub interest_radius_override: Option<f64>,
    /// Re-evaluate the whole replay suffix on out-of-order arrivals,
    /// verifying the Algorithm 6 closure contract (costly; used by the
    /// verification tests). Off: rebuilds re-apply stored outcomes.
    pub verify_rebuilds: bool,
    /// Notify clients of the last installed position (enabling garbage
    /// collection of their replay logs) every this-many installed actions.
    pub gc_every: u64,
    /// Unused: the server runs Algorithm 7 and push selection on its own
    /// thread, and nothing in the protocol crates reads this field. It
    /// exists only because the end-to-end benchmark (`bench/src`) still
    /// sets it; it goes when that harness is next changed.
    pub analyze_threads: Option<usize>,
    /// Unused, for the same reason as the field above.
    pub exec_threads: Option<usize>,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            mode: ServerMode::InfoBound,
            rtt: SimDuration::from_ms(238),
            tick: SimDuration::from_ms(50),
            omega: 0.25,
            threshold: 45.0, // 1.5 × the Table I visibility of 30
            redundant_completions: false,
            interest_filtering: false,
            velocity_culling: false,
            interest_radius_override: None,
            verify_rebuilds: false,
            gc_every: 64,
            analyze_threads: None,
            exec_threads: None,
        }
    }
}

impl ProtocolConfig {
    /// A config in the given mode with Table I defaults otherwise.
    pub fn with_mode(mode: ServerMode) -> Self {
        Self {
            mode,
            ..Self::default()
        }
    }

    /// The push period ω·RTT.
    pub fn push_period(&self) -> SimDuration {
        self.rtt.scaled(self.omega)
    }

    /// The response-time bound (1+ω)·RTT, in milliseconds.
    pub fn response_bound_ms(&self) -> f64 {
        self.rtt.as_ms_f64() * (1.0 + self.omega)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let c = ProtocolConfig::default();
        assert_eq!(c.rtt.as_ms_f64(), 238.0);
        assert_eq!(c.threshold, 45.0);
        assert!(c.omega > 0.0 && c.omega < 1.0);
    }

    #[test]
    fn mode_predicates() {
        assert!(!ServerMode::Basic.pushes());
        assert!(!ServerMode::Incomplete.pushes());
        assert!(ServerMode::FirstBound.pushes());
        assert!(ServerMode::InfoBound.pushes());
        assert!(ServerMode::InfoBound.drops());
        assert!(!ServerMode::FirstBound.drops());
    }

    #[test]
    fn push_period_and_bound() {
        let c = ProtocolConfig {
            omega: 0.25,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.push_period().as_ms_f64(), 59.5);
        assert_eq!(c.response_bound_ms(), 297.5);
    }
}
