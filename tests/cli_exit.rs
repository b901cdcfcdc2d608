//! The `realnet` example answers `--help` and refuses a bad command line
//! at once, before it binds or starts anything, as the standalone binaries
//! do (`crates/rt/tests/cli_exit.rs`).
//!
//! Cargo names no example executable to a test the way `CARGO_BIN_EXE_*`
//! names a binary, but `cargo test` builds a package's examples before it
//! runs any of its tests, into the `examples/` directory beside this test's
//! own `deps/`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The `realnet` example built alongside this test.
fn realnet() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target profile directory");
    let path = dir
        .join("examples")
        .join(format!("realnet{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "{} is missing: run the whole `cargo test -p seve`, which builds the examples",
        path.display()
    );
    path
}

/// Run the example with `args` and return its exit code and stdout. A
/// child still running after five seconds is killed, and the run fails.
fn run(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(realnet())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("realnet {args:?} was still running after 5 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("output");
    let code = out.status.code().expect("an exit code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn realnet_help_exits_0_and_a_bad_command_line_exits_2() {
    let (code, out) = run(&["--help"]);
    assert_eq!(code, 0, "realnet --help");
    assert!(out.starts_with("usage:"), "realnet --help printed {out:?}");
    for bad in [
        &["--bogus"][..],
        &["6"],
        &["--clients", "x"],
        &["--moves"],
        &["--backend", "udp"],
    ] {
        assert_eq!(run(bad).0, 2, "realnet {bad:?}");
    }
}
