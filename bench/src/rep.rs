//! What one rep measured, and the metrics derived from it.

use crate::calib;
use crate::counters::Counters;
use crate::metrics::Metrics;
use crate::stats;
use crate::trace::{layer_stats, Layer, Span};
use seve_core::consistency::ConsistencyOracle;
use seve_core::engine::ClientNode;
use seve_world::GameWorld;

/// Traffic totals the harness counts as frames cross its codec calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireTotals {
    pub up_msgs: u64,
    pub down_msgs: u64,
    pub up_bytes: u64,
    pub down_bytes: u64,
    pub frames_encoded: u64,
    pub frames_shared: u64,
}

/// What the replicas themselves say about a rep, gathered once it is over.
#[derive(Clone, Debug, Default)]
pub struct Replicas {
    /// Actions whose issuer never learned their fate (still pending at the
    /// end of the drain) — the rep's failed operations.
    pub unresolved: u64,
    /// Response time of every resolved action: virtual ms on direct
    /// workloads, wall ms from the move's due time on `loopback`.
    pub response_ms: Vec<f64>,
    /// Evaluation records fed to the Theorem 1 oracle, and its violations.
    pub oracle_records: u64,
    pub violations: u64,
}

impl Replicas {
    /// Drain every client's evaluation records into one oracle and gather
    /// their response samples and still-pending actions.
    pub fn collect<'a, W: GameWorld, C: ClientNode<W> + 'a>(
        clients: impl IntoIterator<Item = &'a mut C>,
    ) -> Self {
        let mut oracle = ConsistencyOracle::new();
        let mut out = Replicas::default();
        for c in clients {
            out.unresolved += c.pending_len() as u64;
            out.response_ms
                .extend_from_slice(c.metrics().response_ms.samples());
            for rec in c.metrics_mut().take_eval_records() {
                oracle.observe(&rec);
            }
        }
        out.oracle_records = oracle.records();
        out.violations = oracle.violations().len() as u64;
        out
    }
}

/// Facts only the live mode has.
#[derive(Clone, Debug, Default)]
pub struct LiveFacts {
    /// CPU the generator thread burned, calibration slices excluded.
    pub generator_cpu_s: f64,
    /// System-time share of the whole process's CPU over the rep.
    pub sys_share: f64,
    /// How late each move was submitted after it was due, ms.
    pub late_ms: Vec<f64>,
    /// Duration of each sweep over all clients that did any work, µs.
    pub sweep_us: Vec<f64>,
    pub threads_peak: u64,
    pub fds_peak: u64,
}

/// One rep's measurements. Times are seconds of wall clock unless noted,
/// with the calibration slices' own time already taken out.
pub struct Rep {
    pub counters: Counters,
    pub replicas: Replicas,
    pub wire: WireTotals,
    pub setup_s: f64,
    pub loop_wall_s: f64,
    /// Server side: time inside the harness's server-side calls (direct);
    /// process CPU minus the generator thread's (live).
    pub server_s: f64,
    /// Time inside the harness's client-side calls.
    pub client_s: f64,
    /// Time inside `Workload::next_action`.
    pub generator_s: f64,
    /// Everything: loop wall on one busy thread (direct); whole-process
    /// CPU (live, where wall is timer-bound).
    pub busy_s: f64,
    pub calib_slices_ns: Vec<f64>,
    /// ns per `Action::evaluate` over sampled actions (traced rep only).
    pub eval_calib_ns: f64,
    pub spans: Option<Vec<Span>>,
    pub live: Option<LiveFacts>,
}

impl Rep {
    pub fn speed_index(&self) -> f64 {
        calib::speed_index(&self.calib_slices_ns)
    }

    pub fn calib_iqr_share(&self) -> f64 {
        stats::iqr_share(&self.calib_slices_ns)
    }

    /// Did the host's speed move too much *during* this rep to trust its
    /// calibrated values?
    pub fn noisy(&self) -> bool {
        self.calib_iqr_share() > calib::NOISY_IQR_SHARE
    }

    /// On `loopback`, a generator that ran late did not offer the load it
    /// claims; such a rep is reported but not averaged in.
    pub fn valid(&self) -> bool {
        self.live
            .as_ref()
            .is_none_or(|l| stats::percentile(&l.late_ms, 0.99) < LATE_P99_LIMIT_MS)
    }

    /// The correctness gates every rep must pass; the failures, worded.
    pub fn gate_failures(&self) -> Vec<String> {
        let c = &self.counters;
        let mut bad = Vec::new();
        if self.replicas.violations != 0 {
            bad.push(format!(
                "Theorem 1 oracle: {} violations in {} evaluations",
                self.replicas.violations, self.replicas.oracle_records
            ));
        }
        if c.submitted == 0 {
            bad.push("no action was submitted".to_string());
        }
        if c.installed + c.dropped + self.replicas.unresolved != c.submitted {
            bad.push(format!(
                "installed {} != submitted {} - dropped {} - unresolved {}",
                c.installed, c.submitted, c.dropped, self.replicas.unresolved
            ));
        }
        if self.replicas.response_ms.len() as u64 + c.dropped + self.replicas.unresolved
            != c.submitted
        {
            bad.push(format!(
                "{} responses for {} submitted, {} dropped, {} unresolved",
                self.replicas.response_ms.len(),
                c.submitted,
                c.dropped,
                self.replicas.unresolved
            ));
        }
        if c.pool_outstanding != 0 {
            bad.push(format!("{} pooled buffers leaked", c.pool_outstanding));
        }
        if c.session_coping() != 0 {
            bad.push(format!(
                "session layer coped with faults on a clean run: {} retransmits, \
                 {} reconnects, {} reaps, {} sheds",
                c.session_retransmits, c.session_reconnects, c.session_reaps, c.session_sheds
            ));
        }
        bad
    }

    /// The facts of this rep that must be bit-identical in every rep of a
    /// direct workload at one seed.
    pub fn exact_facts(&self) -> (u64, u64, u64, u64, WireTotals, Vec<u64>) {
        let c = &self.counters;
        let mut responses: Vec<u64> = self
            .replicas
            .response_ms
            .iter()
            .map(|r| r.to_bits())
            .collect();
        responses.sort_unstable();
        (
            c.submitted,
            c.dropped,
            c.installed,
            self.replicas.unresolved,
            self.wire,
            responses,
        )
    }

    /// This rep's end-to-end metrics: `(raw, calibrated)`.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> (Metrics, Metrics) {
        let idx = self.speed_index();
        let actions = self.counters.submitted as f64;
        let mut raw = Metrics::default();
        raw.push("server_actions_per_s", actions / self.server_s);
        raw.push("client_us_per_action", self.client_s * 1e6 / actions);
        raw.push("actions_per_s", actions / self.busy_s);
        raw.push(
            "response_ms_p50",
            stats::percentile(&self.replicas.response_ms, 0.50),
        );
        raw.push(
            "response_ms_p99",
            stats::percentile(&self.replicas.response_ms, 0.99),
        );
        raw.push(
            "bytes_per_action",
            (self.wire.up_bytes + self.wire.down_bytes) as f64 / actions,
        );
        raw.push("installed_share", self.counters.installed as f64 / actions);
        raw.push("peak_rss_mb", peak_rss_mb);
        raw.push("setup_s", self.setup_s);
        let mut cal = Metrics::default();
        for (name, unit, calibrated) in crate::metrics::END_TO_END {
            let value = raw.get(name).expect("every end-to-end metric was pushed");
            let value = match (calibrated, unit) {
                (false, _) => value,
                (true, "1/s") => calib::normalise_rate(value, idx),
                (true, _) => calib::normalise_time(value, idx),
            };
            cal.push(name, value);
        }
        (raw, cal)
    }

    /// The traced rep's per-layer metrics. `untraced_wall_s` is the median
    /// loop wall of the untraced reps of the same run, at nominal host
    /// speed; `width_ratio` is
    /// `exec.width2_over_width1` where the workload measures it.
    pub fn per_layer(&self, untraced_wall_s: f64, width_ratio: f64) -> Metrics {
        let spans = self.spans.as_deref().unwrap_or(&[]);
        let by_layer = layer_stats(spans);
        let of = |l: Layer| by_layer[l as usize];
        let actions = self.counters.submitted as f64;
        let mut m = Metrics::default();

        for (prefix, layer) in [
            ("world.gen", Layer::WorldGen),
            ("core.client.submit", Layer::ClientSubmit),
            ("core.client.deliver", Layer::ClientDeliver),
            ("core.server.deliver", Layer::ServerDeliver),
            ("core.server.tick", Layer::ServerTick),
            ("core.server.push", Layer::ServerPush),
        ] {
            m.push(&format!("{prefix}_ns"), of(layer).sum_ns as f64);
            m.push(&format!("{prefix}_calls"), of(layer).calls as f64);
        }
        for (name, layer) in [
            ("core.client.deliver_p99_ns", Layer::ClientDeliver),
            ("core.server.tick_p99_ns", Layer::ServerTick),
            ("core.server.push_p99_ns", Layer::ServerPush),
        ] {
            m.push(name, of(layer).p99_ns as f64);
        }
        for (name, layer) in [
            ("rt.wire.up_encode_ns", Layer::UpEncode),
            ("rt.wire.up_decode_ns", Layer::UpDecode),
            ("rt.wire.down_encode_ns", Layer::DownEncode),
            ("rt.wire.down_decode_ns", Layer::DownDecode),
            ("rt.frame.read_ns", Layer::FrameRead),
            ("rt.frame.write_ns", Layer::FrameWrite),
        ] {
            m.push(name, of(layer).sum_ns as f64);
        }
        m.push("world.eval_calib_ns", self.eval_calib_ns);

        let w = &self.wire;
        m.push("rt.wire.up_msgs", w.up_msgs as f64);
        m.push("rt.wire.down_msgs", w.down_msgs as f64);
        m.push("rt.wire.up_bytes", w.up_bytes as f64);
        m.push("rt.wire.down_bytes", w.down_bytes as f64);
        m.push("rt.wire.frames_encoded", w.frames_encoded as f64);
        m.push("rt.wire.frames_shared", w.frames_shared as f64);
        m.push(
            "rt.wire.share_ratio",
            w.frames_shared as f64 / (w.down_msgs as f64).max(1.0),
        );

        self.counters.per_layer(&mut m);
        m.push(
            "core.server.unresolved_share",
            self.replicas.unresolved as f64 / actions,
        );
        m.push("exec.width2_over_width1", width_ratio);

        let live = self.live.clone().unwrap_or_default();
        m.push("rt.server.threads_peak", live.threads_peak as f64);
        m.push("rt.server.fds_peak", live.fds_peak as f64);
        m.push("rt.server.sys_share", live.sys_share);
        m.push(
            "rt.server.cpu_us_per_action",
            if self.live.is_some() {
                self.server_s * 1e6 / actions
            } else {
                0.0
            },
        );
        m.push("gen.late_ms_p99", stats::percentile(&live.late_ms, 0.99));
        m.push("gen.sweep_us_p99", stats::percentile(&live.sweep_us, 0.99));
        m.push(
            "gen.cpu_us_per_action",
            live.generator_cpu_s * 1e6 / actions,
        );
        m.push("gen.cpu_share", live.generator_cpu_s / self.loop_wall_s);

        // What the named spans leave unexplained: of the loop's wall on the
        // direct workloads (one thread, never idle); of the generator
        // thread's CPU on `loopback` (it sleeps between sweeps).
        let named_s: f64 = by_layer.iter().map(|s| s.sum_ns as f64 / 1e9).sum();
        let harness_s = self
            .live
            .as_ref()
            .map_or(self.loop_wall_s, |l| l.generator_cpu_s);
        m.push("bench.loop_wall_s", self.loop_wall_s);
        m.push("bench.unattributed_share", 1.0 - named_s / harness_s);
        m.push(
            "bench.trace_overhead_share",
            (calib::normalise_time(self.loop_wall_s, self.speed_index()) - untraced_wall_s)
                / untraced_wall_s,
        );
        m.push("bench.spans", spans.len() as f64);
        m.push("host.speed_index", self.speed_index());
        m.push("host.calib_iqr_share", self.calib_iqr_share());
        m
    }
}

/// `gen.late_ms_p99` at or above this invalidates a `loopback` rep.
pub const LATE_P99_LIMIT_MS: f64 = 2.0;
