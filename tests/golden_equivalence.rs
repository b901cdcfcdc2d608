//! Golden-equivalence guard for the staged server pipeline.
//!
//! The three SEVE server engines were refactored from standalone state
//! machines into policy configurations of one shared `core::pipeline`. The
//! simulator path must be *bit-identical* before and after: same messages,
//! same costs, same link traffic, same replica digests. These tests pin a
//! digest of every externally observable `RunResult` field for two paper
//! configurations — the Figure 6 scalability point at 32 clients and the
//! Figure 8 dense-crowd point with dropping on — plus the Basic and
//! Incomplete engines on the same 32-client world. The golden constants
//! were captured from the pre-refactor engines; any drift in serialization
//! order, routing, cost accounting, or egress assembly changes a digest.

use seve::core::config::ServerMode;
use seve::sim::experiment::{
    dense_protocol, dense_world, paper_protocol, paper_sim, paper_world, run_seve, Scale,
};
use seve::sim::{RunResult, SimConfig};

/// FNV-1a over a byte stream; stable and dependency-free.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn samples(&mut self, s: &[f64]) {
        self.u64(s.len() as u64);
        for &v in s {
            self.f64(v);
        }
    }
}

/// Digest of everything a protocol run exposes to the figures: response
/// summaries, byte/message counters, drop counts, consistency counters, and
/// the replica state digests. Server metrics *summaries* (batch sizes,
/// stage profile) are deliberately excluded — they are diagnostics, not
/// figure inputs — but the compute totals are included because they drive
/// the simulated machine model.
fn run_digest(r: &RunResult) -> u64 {
    let mut d = Digest::new();
    d.bytes(r.protocol.as_bytes());
    d.u64(r.clients as u64);
    d.samples(r.response_ms.samples());
    d.samples(r.drop_notice_ms.samples());
    d.u64(r.submitted);
    d.u64(r.dropped);
    d.u64(r.total_bytes);
    d.u64(r.server_down_bytes);
    d.u64(r.server_up_bytes);
    d.u64(r.total_msgs);
    d.u64(r.violations as u64);
    d.u64(r.missing_read_evals);
    d.u64(r.replay_divergences);
    d.u64(r.evals_checked);
    d.u64(r.client_compute_us);
    d.u64(r.server_compute_us);
    d.u64(r.server.submissions);
    d.u64(r.server.drops);
    d.u64(r.server.installed);
    d.u64(r.server.compute_us);
    d.u64(r.server.max_queue_len as u64);
    for &s in &r.stable_digests {
        d.u64(s);
    }
    d.u64(r.committed_digest.unwrap_or(0));
    d.u64(r.duration.as_micros());
    d.0
}

/// Figure 6 at 32 clients (quick scale): the InfoBound SEVE server on the
/// Table I Manhattan world.
fn fig6_run(mode: ServerMode) -> RunResult {
    let world = paper_world(32, Scale::Quick);
    let sim = paper_sim(Scale::Quick);
    run_seve(&world, mode, paper_protocol(mode), &sim)
}

/// Figure 8 dense-crowd point (spacing 6, visibility 30, effect range 6)
/// with dropping on — exercises Algorithm 7 verdicts, the Eq. 1 sphere
/// with the interest-radius override, and drop notices.
fn fig8_run() -> RunResult {
    let world = dense_world(30.0, 6.0, 6.0, Scale::Quick);
    let sim = SimConfig {
        moves_per_client: 30,
        ..SimConfig::default()
    };
    let proto = dense_protocol(ServerMode::InfoBound, 30.0, 6.0);
    run_seve(&world, ServerMode::InfoBound, proto, &sim)
}

// Golden digests captured from the pre-refactor engines (commit 115cafd
// lineage) under the vendored deterministic dependency stubs, and re-pinned
// twice since, each time for a change to the simulated substrate, not to
// the engines: the InfoBound and dense digests when client machines took
// the server's wake rule (one wake per instant), then all five when links
// began charging the bytes the codec writes instead of a size model.
const GOLD_FIG6_INFOBOUND: u64 = 0x2aff3e2b797b29c3;
const GOLD_FIG6_FIRSTBOUND: u64 = 0x691771a2f3b7f1fd;
const GOLD_FIG6_BASIC: u64 = 0x393a62be87091aa6;
const GOLD_FIG6_INCOMPLETE: u64 = 0x60226a1c2f6912a;
const GOLD_FIG8_DENSE_DROP: u64 = 0xb23eca859fd8329b;

#[test]
fn fig6_infobound_matches_pre_refactor_engines() {
    assert_eq!(
        run_digest(&fig6_run(ServerMode::InfoBound)),
        GOLD_FIG6_INFOBOUND
    );
}

#[test]
fn fig6_firstbound_matches_pre_refactor_engines() {
    assert_eq!(
        run_digest(&fig6_run(ServerMode::FirstBound)),
        GOLD_FIG6_FIRSTBOUND
    );
}

#[test]
fn fig6_basic_matches_pre_refactor_engines() {
    assert_eq!(run_digest(&fig6_run(ServerMode::Basic)), GOLD_FIG6_BASIC);
}

#[test]
fn fig6_incomplete_matches_pre_refactor_engines() {
    assert_eq!(
        run_digest(&fig6_run(ServerMode::Incomplete)),
        GOLD_FIG6_INCOMPLETE
    );
}

#[test]
fn fig8_dense_with_dropping_matches_pre_refactor_engines() {
    assert_eq!(run_digest(&fig8_run()), GOLD_FIG8_DENSE_DROP);
}

/// Capture helper: `cargo test -p seve --test golden_equivalence -- --ignored --nocapture`
/// prints the digests to re-pin after an *intentional* behaviour change.
#[test]
#[ignore]
fn print_golden_digests() {
    println!(
        "GOLD_FIG6_INFOBOUND: u64 = {:#x};",
        run_digest(&fig6_run(ServerMode::InfoBound))
    );
    println!(
        "GOLD_FIG6_FIRSTBOUND: u64 = {:#x};",
        run_digest(&fig6_run(ServerMode::FirstBound))
    );
    println!(
        "GOLD_FIG6_BASIC: u64 = {:#x};",
        run_digest(&fig6_run(ServerMode::Basic))
    );
    println!(
        "GOLD_FIG6_INCOMPLETE: u64 = {:#x};",
        run_digest(&fig6_run(ServerMode::Incomplete))
    );
    println!(
        "GOLD_FIG8_DENSE_DROP: u64 = {:#x};",
        run_digest(&fig8_run())
    );
}
