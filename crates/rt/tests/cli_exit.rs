//! The standalone binaries answer `--help` and refuse a bad command line
//! at once, before they bind, dial or wait on anything.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args` and return its exit code and stdout. A child
/// still running after a second is killed, and the run fails.
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let mut child = Command::new(bin)
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
            panic!("{bin} {args:?} was still running after 1 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("output");
    let code = out.status.code().expect("an exit code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn help_exits_0_and_a_bad_command_line_exits_2() {
    for bin in [
        env!("CARGO_BIN_EXE_seve-server"),
        env!("CARGO_BIN_EXE_seve-client"),
    ] {
        let (code, out) = run(bin, &["--help"]);
        assert_eq!(code, 0, "{bin} --help");
        assert!(out.starts_with("usage:"), "{bin} --help printed {out:?}");
        for bad in [&["--bogus"][..], &["stray"], &["--clients", "x"]] {
            assert_eq!(run(bin, bad).0, 2, "{bin} {bad:?}");
        }
    }
    assert_eq!(run(env!("CARGO_BIN_EXE_seve-client"), &["--id", "x"]).0, 2);
}
