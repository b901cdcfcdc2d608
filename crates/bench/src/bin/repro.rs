//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick]
//!       [table1|fig6|fig7|fig8|fig9|fig10|table2|capacity|ablations|all|sim-scale]
//! ```
//!
//! `--quick` runs the reduced sweeps used by the test suite; the default is
//! the paper-fidelity configuration (Table I). Output is plain text,
//! suitable for diffing against `EXPERIMENTS.md`.
//!
//! `sim-scale` is not part of `all`: it runs the Information Bound server
//! with 10 moves per client at 1024 clients (`--quick`) or at 1024 and 2048,
//! prints the deterministic counts on stdout (submitted and dropped actions,
//! and the events the simulator popped to carry them) and the wall-clock
//! time on stderr, and panics on any Theorem 1 violation.

use seve_core::config::ServerMode;
use seve_sim::experiment::{self, paper_protocol, paper_sim, paper_world, run_seve, Scale};
use seve_sim::report::{render_replay_work, render_settings, render_stage_profile};
use seve_sim::SimConfig;
use std::io::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    const KNOWN: [&str; 11] = [
        "all",
        "table1",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table2",
        "capacity",
        "ablations",
        "sim-scale",
    ];
    if let Some(bad) = what.iter().find(|w| !KNOWN.contains(w)) {
        eprintln!("unknown experiment '{bad}'");
        eprintln!("usage: repro [--quick] [{}]", KNOWN.join("|"));
        std::process::exit(2);
    }
    let all = what.is_empty() || what.contains(&"all");
    let want = |k: &str| all || what.contains(&k);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    if want("table1") {
        let rows = experiment::table1();
        let _ = writeln!(
            out,
            "{}",
            render_settings("Table I — Simulation Settings", &rows)
        );
    }
    if want("fig6") || want("fig9") {
        // One sweep feeds both figures.
        let sweep = experiment::scalability_sweep(scale);
        if want("fig6") {
            let _ = writeln!(out, "{}", experiment::fig6_from_sweep(&sweep).render());
        }
        if want("fig9") {
            let _ = writeln!(out, "{}", experiment::fig9_from_sweep(&sweep).render());
        }
        // Wall-clock stage timings of the largest SEVE run. Host-dependent
        // diagnostics go to stderr so the figure output stays byte-stable.
        if let Some((name, n, r)) = sweep
            .iter()
            .filter(|(name, _, _)| name == "SEVE")
            .max_by_key(|(_, n, _)| *n)
        {
            let label = format!("{name} @ {n} clients");
            eprint!("{}", render_stage_profile(&label, &r.server.stage));
            eprint!(
                "{}",
                render_replay_work(
                    &label,
                    r.replay_rebuilds,
                    r.replay_entries_replayed,
                    r.replay_checkpoint_hits,
                    r.replay_commute_hits,
                )
            );
        }
    }
    if want("fig7") {
        let _ = writeln!(out, "{}", experiment::fig7(scale).render());
    }
    if want("fig8") {
        let _ = writeln!(out, "{}", experiment::fig8(scale).render());
    }
    if want("table2") {
        let _ = writeln!(out, "{}", experiment::table2(scale).render());
    }
    if want("fig10") {
        let _ = writeln!(out, "{}", experiment::fig10(scale).render());
    }
    if want("ablations") {
        let _ = writeln!(out, "{}", experiment::ablation_omega(scale).render());
        let _ = writeln!(out, "{}", experiment::ablation_threshold(scale).render());
        let _ = writeln!(
            out,
            "{}",
            experiment::ablation_optimizations(scale).render()
        );
        let _ = writeln!(out, "{}", experiment::ring_inconsistency(scale).render());
    }
    if want("capacity") {
        let (cap, r) = experiment::server_capacity(scale);
        let _ = writeln!(
            out,
            "== capacity — single-server client limit ==\n  server utilization at 64 clients: {:.4}\n  extrapolated capacity: {:.0} clients (paper: ~3500)\n  server compute: {} µs over {:.1} s virtual\n",
            r.server_utilization,
            cap,
            r.server_compute_us,
            r.duration.as_secs_f64()
        );
    }
    if what.contains(&"sim-scale") {
        let sizes: &[usize] = if quick { &[1024] } else { &[1024, 2048] };
        let _ = writeln!(
            out,
            "== sim-scale — Information Bound, 10 moves per client ==\n  clients  submitted  dropped     events"
        );
        for &clients in sizes {
            // The quick world and network at every size: the run measures
            // the simulator's own scaling, not the wall-count cost model.
            let world = paper_world(clients, Scale::Quick);
            let sim = SimConfig {
                moves_per_client: 10,
                ..paper_sim(Scale::Quick)
            };
            let mode = ServerMode::InfoBound;
            let t = Instant::now();
            let r = run_seve(&world, mode, paper_protocol(mode), &sim);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(r.violations, 0, "Theorem 1 at {clients} clients");
            let _ = writeln!(
                out,
                "  {clients:>7}  {:>9}  {:>7}  {:>9}",
                r.submitted, r.dropped, r.events
            );
            eprintln!("sim-scale clients={clients}: {wall_ms:.0} ms wall");
        }
    }
}
