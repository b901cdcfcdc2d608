//! The benchmark's metric names, as `BENCHMARK.json` declares them, and the
//! container a run's values are collected in.

use crate::json::Json;

/// `(name, unit, calibrated)` of every end-to-end metric. Every workload
/// reports every one; what each measures on which workload is in README.md.
/// Calibrated metrics are scaled by `host.speed_index` (see `calib.rs`).
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("server_actions_per_s", "1/s", true),
    ("client_us_per_action", "us", true),
    ("actions_per_s", "1/s", true),
    ("response_ms_p50", "ms", false),
    ("response_ms_p99", "ms", false),
    ("bytes_per_action", "B", false),
    ("installed_share", "share", false),
    ("peak_rss_mb", "MB", false),
    ("setup_s", "s", true),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("world.gen_ns", "ns"),
    ("world.gen_calls", "count"),
    ("world.eval_calib_ns", "ns"),
    ("core.client.submit_ns", "ns"),
    ("core.client.submit_calls", "count"),
    ("core.client.deliver_ns", "ns"),
    ("core.client.deliver_calls", "count"),
    ("core.client.deliver_p99_ns", "ns"),
    ("core.client.evaluations", "count"),
    ("core.client.reconciliations", "count"),
    ("core.client.completions_sent", "count"),
    ("core.replay.rebuilds", "count"),
    ("core.replay.entries_replayed", "count"),
    ("core.replay.checkpoint_hits", "count"),
    ("core.replay.commute_hits", "count"),
    ("core.replay.commute_share", "share"),
    ("core.server.deliver_ns", "ns"),
    ("core.server.deliver_calls", "count"),
    ("core.server.tick_ns", "ns"),
    ("core.server.tick_calls", "count"),
    ("core.server.tick_p99_ns", "ns"),
    ("core.server.push_ns", "ns"),
    ("core.server.push_calls", "count"),
    ("core.server.push_p99_ns", "ns"),
    ("core.pipeline.ingress_ns", "ns"),
    ("core.pipeline.serialize_ns", "ns"),
    ("core.pipeline.analyze_ns", "ns"),
    ("core.pipeline.route_ns", "ns"),
    ("core.pipeline.egress_ns", "ns"),
    ("core.closure.entries_visited", "count"),
    ("core.closure.entries_linear", "count"),
    ("core.analyze.entries_visited", "count"),
    ("core.analyze.parallel_ticks", "count"),
    ("core.analyze.drops", "count"),
    ("core.analyze.drop_share", "share"),
    ("core.server.max_queue_len", "count"),
    ("core.server.installed", "count"),
    ("core.server.unresolved_share", "share"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.busy_ns", "ns"),
    ("exec.queue_hwm", "count"),
    ("exec.width2_over_width1", "ratio"),
    ("rt.wire.up_encode_ns", "ns"),
    ("rt.wire.up_decode_ns", "ns"),
    ("rt.wire.down_encode_ns", "ns"),
    ("rt.wire.down_decode_ns", "ns"),
    ("rt.wire.up_msgs", "count"),
    ("rt.wire.down_msgs", "count"),
    ("rt.wire.up_bytes", "B"),
    ("rt.wire.down_bytes", "B"),
    ("rt.wire.frames_encoded", "count"),
    ("rt.wire.frames_shared", "count"),
    ("rt.wire.share_ratio", "share"),
    ("rt.frame.read_ns", "ns"),
    ("rt.frame.write_ns", "ns"),
    ("rt.server.writev_batches", "count"),
    ("rt.server.pool_hits", "count"),
    ("rt.server.pool_outstanding", "count"),
    ("rt.server.threads_peak", "count"),
    ("rt.server.fds_peak", "count"),
    ("rt.server.sys_share", "share"),
    ("rt.server.cpu_us_per_action", "us"),
    ("driver.session.acks", "count"),
    ("driver.session.retransmits", "count"),
    ("driver.session.reconnects", "count"),
    ("driver.session.reaps", "count"),
    ("driver.session.sheds", "count"),
    ("gen.late_ms_p99", "ms"),
    ("gen.sweep_us_p99", "us"),
    ("gen.cpu_us_per_action", "us"),
    ("gen.cpu_share", "share"),
    ("bench.loop_wall_s", "s"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.spans", "count"),
    ("host.speed_index", "ratio"),
    ("host.calib_iqr_share", "share"),
];

/// The declared unit of `name`.
///
/// # Panics
/// If no table declares `name`: the binary may only print declared metrics.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER)
        .find(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
        .1
}

/// Named values with their declared units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit_of(name)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// `{"<name>": {"value": v, "unit": u}, ...}` — the contract's shape.
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(n, v, u)| {
            (
                n,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]),
            )
        }))
    }

    /// Is every name in `names` present exactly once, and nothing else?
    pub fn matches(&self, names: impl IntoIterator<Item = &'static str>) -> bool {
        let mut mine: Vec<&str> = self.0.iter().map(|m| m.0.as_str()).collect();
        let mut theirs: Vec<&str> = names.into_iter().collect();
        mine.sort_unstable();
        theirs.sort_unstable();
        mine == theirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must declare the same metrics and units.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |from: &str, to: &str| {
            let a = spec.find(from).expect("section start");
            let b = spec[a..].find(to).map_or(spec.len(), |i| a + i);
            &spec[a..b]
        };
        let e2e = section("\"end_to_end\"", "\"per_layer\"");
        for (name, unit, _) in END_TO_END {
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(e2e.contains(&decl), "end_to_end lacks {decl}");
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        let per_layer = section("\"per_layer\"", "\u{0}");
        for (name, unit) in PER_LAYER {
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&decl), "per_layer lacks {decl}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn matches_is_exact_and_units_come_from_the_tables() {
        let mut m = Metrics::default();
        m.push("setup_s", 1.0);
        m.push("exec.tasks", 2.0);
        assert!(m.matches(["exec.tasks", "setup_s"]));
        assert!(!m.matches(["setup_s"]));
        assert!(!m.matches(["setup_s", "exec.tasks", "exec.steals"]));
        assert_eq!(m.get("exec.tasks"), Some(2.0));
        let units: Vec<_> = m.iter().map(|(_, _, u)| u).collect();
        assert_eq!(units, ["s", "count"]);
    }
}
