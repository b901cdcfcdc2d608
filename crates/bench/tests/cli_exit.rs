//! `repro` answers `--help` and refuses an unknown argument at once,
//! instead of running the experiments.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `repro` with `args` and return its exit code and stdout. A child
/// still running after a second is killed, and the run fails.
fn run(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(1);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("repro {args:?} was still running after 1 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("output");
    let code = out.status.code().expect("an exit code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn help_exits_0_and_an_unknown_argument_exits_2() {
    let (code, out) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(out.starts_with("usage:"), "--help printed {out:?}");
    for bad in [&["--bogus"][..], &["--quick", "fig99"]] {
        assert_eq!(run(bad).0, 2, "repro {bad:?}");
    }
}
