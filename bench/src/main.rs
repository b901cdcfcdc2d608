//! `seve-e2e`: the repo's end-to-end benchmark with a layer budget.
//!
//! ```text
//! seve-e2e --workload <crowd|sprawl|melee|loopback> --seed <n>
//!          --seconds <s> --trace <0|1> [--reps <k>] [--out <dir>]
//!          [--report] [--commit <id>] [--rustc <version>]
//! ```
//!
//! One run is one workload: a short warm-up rep (discarded), then measured
//! reps — each with a fresh world and fresh engines from the same seed —
//! until `--seconds` of measuring are used up (at least [`MIN_REPS`];
//! `--reps` fixes the count instead). A metric's value is the median over
//! the reps. With `--trace 1` the run instead makes two untraced reps and
//! one traced rep and reports the per-layer metrics, writing the spans to
//! `<out>/<workload>.trace.json`.
//!
//! The last line of standard output is the result object the benchmark
//! contract asks for; the lines before it say the same for people.

mod calib;
mod counters;
mod direct;
mod json;
mod live;
mod metrics;
mod procfs;
mod rep;
mod stats;
mod trace;
mod vtime;
mod workloads;

use json::Json;
use metrics::Metrics;
use rep::Rep;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{WorkloadId, EXEC_WIDTH};

/// Fewest measured reps a `--trace 0` run makes, however slow the host.
const MIN_REPS: usize = 3;
/// Most measured reps, however fast the host.
const MAX_REPS: usize = 9;
/// Untraced reps a `--trace 1` run makes, as the baseline for
/// `bench.trace_overhead_share`.
const TRACE_BASELINE_REPS: usize = 2;
/// Share of the full workload the warm-up rep runs.
const WARMUP_SCALE: f64 = 0.1;

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    out: PathBuf,
    /// Also measure the end-to-end metrics in a `--trace 1` run and write
    /// `<out>/<workload>.rep.json` — what `run.sh` assembles its results
    /// from.
    report: bool,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: WorkloadId::Crowd,
        seed: 1,
        seconds: 20.0,
        trace: false,
        reps: None,
        out: PathBuf::from("bench/out"),
        report: false,
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--report" {
            args.report = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::from_name(&value).ok_or(bad("a workload name"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--reps" => {
                let k: usize = value.parse().map_err(|_| bad("an integer"))?;
                args.reps = Some(k.max(1));
            }
            "--out" => args.out = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Run measured (untraced) reps by the policy in the module docs.
fn measured_reps(args: &Args) -> Vec<Rep> {
    let fixed = args
        .reps
        .or((args.trace && !args.report).then_some(TRACE_BASELINE_REPS));
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep = workloads::run_rep(args.workload, args.seed, 1.0, EXEC_WIDTH, false);
        eprintln!(
            "  rep {}: {:.3} s loop, speed index {:.3}{}{}",
            reps.len() + 1,
            rep.loop_wall_s,
            rep.speed_index(),
            if rep.noisy() { " [noisy]" } else { "" },
            if rep.valid() {
                ""
            } else {
                " [invalid: generator late]"
            },
        );
        reps.push(rep);
        let done = match fixed {
            Some(k) => reps.len() >= k,
            None => {
                let used = started.elapsed().as_secs_f64();
                let per_rep = used / reps.len() as f64;
                reps.len() >= MAX_REPS
                    || (reps.len() >= MIN_REPS && used + 0.5 * per_rep > args.seconds)
            }
        };
        if done {
            return reps;
        }
    }
}

/// Per-metric medians over the valid reps: `(calibrated, raw)`.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> (Metrics, Metrics) {
    let per_rep: Vec<(Metrics, Metrics)> = reps
        .iter()
        .filter(|r| r.valid())
        .map(|r| r.end_to_end(peak_rss_mb))
        .collect();
    let mut cal = Metrics::default();
    let mut raw = Metrics::default();
    for (name, _, _) in metrics::END_TO_END {
        let column = |pick: fn(&(Metrics, Metrics)) -> &Metrics| {
            let values: Vec<f64> = per_rep
                .iter()
                .map(|r| pick(r).get(name).expect("every rep reports every metric"))
                .collect();
            stats::median(&values)
        };
        raw.push(name, column(|r| &r.0));
        cal.push(name, column(|r| &r.1));
    }
    (cal, raw)
}

fn print_table(title: &str, m: &Metrics, raw: Option<&Metrics>) {
    println!("{title}");
    for (name, value, unit) in m.iter() {
        match raw.and_then(|r| r.get(name)).filter(|r| *r != value) {
            Some(r) => println!("  {name:<34} {value:>16.4} {unit:<6} (raw {r:.4})"),
            None => println!("  {name:<34} {value:>16.4} {unit}"),
        }
    }
}

fn rep_json(rep: &Rep, peak_rss_mb: f64) -> Json {
    let (raw, cal) = rep.end_to_end(peak_rss_mb);
    Json::obj([
        ("speed_index", Json::Num(rep.speed_index())),
        ("calib_iqr_share", Json::Num(rep.calib_iqr_share())),
        ("noisy", Json::Bool(rep.noisy())),
        ("valid", Json::Bool(rep.valid())),
        ("loop_wall_s", Json::Num(rep.loop_wall_s)),
        ("server_s", Json::Num(rep.server_s)),
        ("client_s", Json::Num(rep.client_s)),
        ("generator_s", Json::Num(rep.generator_s)),
        (
            "gate_failures",
            Json::Arr(rep.gate_failures().into_iter().map(Json::Str).collect()),
        ),
        ("calibrated", cal.to_json()),
        ("raw", raw.to_json()),
    ])
}

/// What the run has established so far, beyond the metrics.
#[derive(Default)]
struct Verdict {
    failures: Vec<String>,
    flags: Vec<&'static str>,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    /// Apply the per-rep gates to `rep` and, on the direct workloads, hold
    /// it to `reference`'s counts: same seed, same work, bit for bit.
    fn check(&mut self, label: &str, rep: &Rep, reference: Option<&Rep>) {
        self.attempted += rep.counters.submitted;
        self.failed += rep.replicas.unresolved;
        for f in rep.gate_failures() {
            self.failures.push(format!("{label}: {f}"));
        }
        if reference.is_some_and(|r| r.exact_facts() != rep.exact_facts()) {
            self.failures.push(format!(
                "{label}: counts differ from rep 1 at the same seed"
            ));
        }
    }
}

/// The `--trace 1` pass: one traced rep (and on `sprawl` the width-1 rep),
/// the per-layer metrics, and the trace file.
fn traced_pass(args: &Args, reps: &[Rep], verdict: &mut Verdict) -> Result<Metrics, String> {
    let w = args.workload;
    let reference = (!w.is_live()).then_some(&reps[0]);
    // Walls are compared at nominal host speed: the reps of one run are
    // seconds apart and the host's speed moves in between.
    let nominal_wall = |r: &Rep| calib::normalise_time(r.loop_wall_s, r.speed_index());
    let untraced_wall = stats::median(&reps.iter().map(nominal_wall).collect::<Vec<_>>());
    let traced = workloads::run_rep(w, args.seed, 1.0, EXEC_WIDTH, true);
    verdict.check("traced rep", &traced, reference);

    // ROADMAP's open question, answered where the parallel gates can open
    // at all: the same traced rep with the pool at width 1.
    let mut width_ratio = 0.0;
    if w == WorkloadId::Sprawl {
        let cycles_ns = |r: &Rep| {
            let s = trace::layer_stats(r.spans.as_deref().unwrap_or(&[]));
            let ns = s[trace::Layer::ServerTick as usize].sum_ns
                + s[trace::Layer::ServerPush as usize].sum_ns;
            calib::normalise_time(ns as f64, r.speed_index())
        };
        let narrow = workloads::run_rep(w, args.seed, 1.0, 1, true);
        verdict.check("width-1 rep", &narrow, reference);
        width_ratio = cycles_ns(&narrow) / cycles_ns(&traced);
        if procfs::nproc() < EXEC_WIDTH {
            verdict.flags.push("oversubscribed");
        }
    }

    let layers = traced.per_layer(untraced_wall, width_ratio);
    print_table(
        &format!("{}: per-layer (traced rep)", w.name()),
        &layers,
        None,
    );
    if !layers.matches(metrics::PER_LAYER.map(|m| m.0)) {
        verdict
            .failures
            .push("the traced rep did not produce every declared per-layer metric".into());
    }

    let spans = traced.spans.as_deref().unwrap_or(&[]);
    let path = args.out.join(format!("{}.trace.json", w.name()));
    let io_err = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&args.out).map_err(io_err)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io_err)?);
    trace::write_trace(&mut file, w.name(), spans)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(io_err)?;
    eprintln!("  {} spans -> {}", spans.len(), path.display());
    Ok(layers)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    eprintln!(
        "{}: seed {}, {} s, trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let load_before = procfs::loadavg();
    workloads::run_rep(w, args.seed, WARMUP_SCALE, EXEC_WIDTH, false);

    let reps = measured_reps(args);
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut verdict = Verdict::default();
    for (i, rep) in reps.iter().enumerate() {
        let reference = (!w.is_live()).then_some(&reps[0]);
        verdict.check(&format!("rep {}", i + 1), rep, reference);
    }
    if reps.iter().any(Rep::noisy) {
        verdict.flags.push("noisy");
    }
    if reps.iter().any(|r| !r.valid()) {
        verdict.flags.push("invalid_reps_excluded");
    }

    let (cal, raw) = if reps.iter().any(Rep::valid) {
        end_to_end(&reps, peak_rss_mb)
    } else {
        verdict
            .failures
            .push("no rep is valid: the generator ran late in every one".into());
        (Metrics::default(), Metrics::default())
    };
    if !cal.matches(metrics::END_TO_END.map(|m| m.0)) {
        verdict
            .failures
            .push("the run did not produce every declared end-to-end metric".into());
    }
    let layers = if args.trace {
        Some(traced_pass(args, &reps, &mut verdict)?)
    } else {
        None
    };
    if layers.is_none() || args.report {
        print_table(
            &format!(
                "{}: end-to-end (median of {} reps, calibrated)",
                w.name(),
                reps.len()
            ),
            &cal,
            Some(&raw),
        );
    }
    for f in &verdict.failures {
        eprintln!("GATE FAILED: {f}");
    }
    let correct = verdict.failures.is_empty();

    if args.report {
        let strings = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
        let failures: Vec<&str> = verdict.failures.iter().map(String::as_str).collect();
        let report = Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Int(args.seed)),
            ("correct", Json::Bool(correct)),
            ("gate_failures", strings(&failures)),
            ("flags", strings(&verdict.flags)),
            (
                "host",
                Json::obj([
                    ("nproc", Json::Int(procfs::nproc() as u64)),
                    ("exec_width", Json::Int(EXEC_WIDTH as u64)),
                    ("rustc", Json::str(&args.rustc)),
                    ("commit", Json::str(&args.commit)),
                    ("loadavg_before", Json::Num(load_before)),
                    ("loadavg_after", Json::Num(procfs::loadavg())),
                    ("calib_nominal_slice_ns", Json::Num(calib::NOMINAL_SLICE_NS)),
                ]),
            ),
            ("end_to_end", cal.to_json()),
            ("end_to_end_raw", raw.to_json()),
            (
                "per_layer",
                layers.as_ref().map_or(Json::Null, Metrics::to_json),
            ),
            (
                "reps",
                Json::Arr(reps.iter().map(|r| rep_json(r, peak_rss_mb)).collect()),
            ),
        ]);
        let path = args.out.join(format!("{}.rep.json", w.name()));
        std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, format!("{report}\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The contract's last line: the per-layer metrics of a `--trace 1`
    // run, the end-to-end metrics of a `--trace 0` run.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(verdict.attempted.max(1))),
            ("failed", Json::Int(verdict.failed)),
            ("metrics", layers.as_ref().unwrap_or(&cal).to_json()),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    // The library resolves pool widths and gate pins from `SEVE_*`
    // variables when its config leaves them open; the benchmark pins
    // everything in config and must not inherit a developer's shell.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SEVE_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seve-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("seve-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
