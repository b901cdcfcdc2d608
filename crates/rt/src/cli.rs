//! Shared command-line plumbing for the standalone server and client
//! binaries. Both sides must construct the *identical* world (same seed and
//! parameters), so the world flags are parsed by one function.

use seve_core::config::{ProtocolConfig, ServerMode};
use seve_net::time::SimDuration;
use seve_world::worlds::manhattan::{ManhattanConfig, ManhattanWorld, SpawnPattern};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

/// Options shared by `seve-server` and `seve-client`.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Number of participating clients.
    pub clients: usize,
    /// Wall count of the Manhattan world.
    pub walls: usize,
    /// World seed (must match between server and clients).
    pub seed: u64,
    /// Protocol mode.
    pub mode: ServerMode,
    /// Assumed round-trip time, milliseconds (drives ω·RTT cycles).
    pub rtt_ms: u64,
}

impl Default for CommonOpts {
    fn default() -> Self {
        Self {
            clients: 4,
            walls: 500,
            seed: 7,
            mode: ServerMode::InfoBound,
            rtt_ms: 40,
        }
    }
}

/// Why a command line does not run.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// `--help` or `-h`.
    Help,
    /// An unknown flag, a stray positional, or a missing or unparsable
    /// value.
    Bad(String),
}

/// Take the value that follows flag `name` from `it`, parsed.
pub fn value<T: FromStr>(name: &str, it: &mut impl Iterator<Item = String>) -> Result<T, ArgError>
where
    T::Err: Display,
{
    let v = it
        .next()
        .ok_or_else(|| ArgError::Bad(format!("{name} needs a value")))?;
    v.parse()
        .map_err(|e| ArgError::Bad(format!("{name} {v:?}: {e}")))
}

/// Parse `--clients N --walls N --seed N --mode basic|incomplete|
/// first-bound|info-bound --rtt MS` from `args`. Any other argument is
/// an error, and `--help` or `-h` asks for the usage.
pub fn parse_common(mut args: impl Iterator<Item = String>) -> Result<CommonOpts, ArgError> {
    let mut opts = CommonOpts::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => opts.clients = value("--clients", &mut args)?,
            "--walls" => opts.walls = value("--walls", &mut args)?,
            "--seed" => opts.seed = value("--seed", &mut args)?,
            "--rtt" => opts.rtt_ms = value("--rtt", &mut args)?,
            "--mode" => {
                opts.mode = match value::<String>("--mode", &mut args)?.as_str() {
                    "basic" => ServerMode::Basic,
                    "incomplete" => ServerMode::Incomplete,
                    "first-bound" => ServerMode::FirstBound,
                    "info-bound" => ServerMode::InfoBound,
                    other => return Err(ArgError::Bad(format!("unknown mode '{other}'"))),
                }
            }
            "--help" | "-h" => return Err(ArgError::Help),
            other => return Err(ArgError::Bad(format!("unknown argument '{other}'"))),
        }
    }
    Ok(opts)
}

/// End a command line that does not run: for `--help`, print `usage` and
/// exit 0; otherwise print the error and `usage` to stderr and exit 2.
pub fn exit_usage(usage: &str, e: ArgError) -> ! {
    match e {
        ArgError::Help => {
            println!("{usage}");
            std::process::exit(0)
        }
        ArgError::Bad(why) => {
            eprintln!("argument error: {why}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// Build the world both sides agree on.
pub fn build_world(opts: &CommonOpts) -> Arc<ManhattanWorld> {
    Arc::new(ManhattanWorld::new(ManhattanConfig {
        clients: opts.clients,
        walls: opts.walls,
        width: 400.0,
        height: 400.0,
        spawn: SpawnPattern::Clustered {
            cluster_size: 6,
            cluster_radius: 14.0,
        },
        seed: opts.seed,
        ..ManhattanConfig::default()
    }))
}

/// Build the protocol configuration both sides agree on.
pub fn build_protocol(opts: &CommonOpts) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::with_mode(opts.mode);
    cfg.rtt = SimDuration::from_ms(opts.rtt_ms);
    cfg.tick = SimDuration::from_ms((opts.rtt_ms / 4).max(2));
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CommonOpts, ArgError> {
        parse_common(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.clients, 4);
        let o = parse(&["--clients", "12", "--mode", "incomplete", "--rtt", "100"]).unwrap();
        assert_eq!(o.clients, 12);
        assert_eq!(o.mode, ServerMode::Incomplete);
        assert_eq!(o.rtt_ms, 100);
        assert!(matches!(
            parse(&["--rtt", "100", "extra"]),
            Err(ArgError::Bad(_))
        ));
        assert_eq!(
            parse(&["--clients", "3", "-h"]).unwrap_err(),
            ArgError::Help
        );
        let cfg = build_protocol(&o);
        assert_eq!(cfg.rtt.as_ms_f64(), 100.0);
        assert_eq!(cfg.tick.as_ms_f64(), 25.0);
    }

    #[test]
    fn bad_values_error() {
        assert!(parse(&["--clients"]).is_err());
        assert!(parse(&["--clients", "x"]).is_err());
        assert!(parse(&["--mode", "zoned"]).is_err());
        assert!(parse(&["--rtt", "soon"]).is_err());
    }

    #[test]
    fn worlds_built_from_equal_opts_are_identical() {
        use seve_world::GameWorld;
        let o = parse(&["--seed", "99", "--clients", "6"]).unwrap();
        let a = build_world(&o);
        let b = build_world(&o);
        assert_eq!(a.initial_state().digest(), b.initial_state().digest());
    }
}
