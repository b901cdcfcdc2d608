//! Time sources for the node driver.
//!
//! Every backend expresses protocol time as [`SimTime`] microseconds; what
//! differs is where those microseconds come from. The simulator takes them
//! from the timestamp of each event it pops; the TCP and in-process
//! backends read a [`WallClock`] anchored at session start. The driver
//! loops are written against the [`Clock`] trait.

use seve_net::time::SimTime;
use std::time::{Duration, Instant};

/// A monotone source of protocol time.
pub trait Clock {
    /// The current time.
    fn now(&self) -> SimTime;

    /// How long to sleep from now until `deadline` (zero if already past).
    fn wait_until(&self, deadline: SimTime) -> Duration {
        Duration::from_micros(deadline.as_micros().saturating_sub(self.now().as_micros()))
    }
}

/// Wall-clock time, measured from an epoch fixed at construction. The
/// threaded backends (TCP, in-process) drive their engines with this: the
/// same microsecond timeline the simulator uses, but real.
#[derive(Clone, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_net::time::SimDuration;

    #[test]
    fn wall_clock_moves_forward() {
        let c = WallClock::new();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        let _ = a + SimDuration::from_ms(1);
    }
}
