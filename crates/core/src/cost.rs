//! The simulated machine's cost model, and the meter engines report to.
//!
//! "Only the clock charged to the simulated machine is modeled": an
//! engine's receipts (the `u64` its `submit`, `deliver`, `tick` and
//! `push_tick` return) stand in for the paper's EMULab Pentium-IIIs, and
//! only the discrete-event simulator reads them. So only the simulator
//! prices work. It installs a [`Meter`] holding its [`CostModel`] on every
//! engine it builds ([`ProtocolSuite::build_metered`]); every other harness
//! builds with [`ProtocolSuite::build`], and those engines charge 0 and
//! never run [`GameWorld::eval_cost_micros`] — on Manhattan a visible-wall
//! query that costs nearly as much host time as the evaluation it prices.
//!
//! [`ProtocolSuite::build_metered`]: crate::engine::ProtocolSuite::build_metered
//! [`ProtocolSuite::build`]: crate::engine::ProtocolSuite::build

use seve_world::GameWorld;

/// The simulated machine's price list: what the work an engine reports
/// costs, in simulated microseconds. Only the simulator prices work (its
/// `SimConfig` owns the model); the defaults are the calibration every
/// figure was measured with.
///
/// The baselines' own per-message, per-send and apply constants stay in
/// their configs; from this model they take only the evaluation price.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostModel {
    /// Microseconds per queue entry a server touches during closure scans
    /// and Algorithm 7 analysis. Calibrated so a single-move closure costs
    /// the paper's measured 0.04 ms.
    pub scan_cost_us_per_entry: f64,
    /// Fixed microseconds per message a SEVE (or RING) server handles.
    pub msg_cost_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            scan_cost_us_per_entry: 0.5,
            msg_cost_us: 15,
        }
    }
}

impl CostModel {
    /// One evaluation of `action`: the world's calibrated price (7.44 ms a
    /// Manhattan move at the paper's wall density). The only caller of
    /// [`GameWorld::eval_cost_micros`].
    #[inline]
    fn eval<W: GameWorld>(&self, world: &W, action: &W::Action) -> u64 {
        world.eval_cost_micros(action)
    }

    /// `entries` queue entries scanned.
    #[inline]
    fn scan(&self, entries: usize) -> u64 {
        (self.scan_cost_us_per_entry * entries as f64) as u64
    }
}

/// An engine's observer of its own work, and its one per-evaluation hook:
/// every evaluation the engine makes is reported to
/// [`evaluated`](Meter::evaluated) exactly once, and a server also reports
/// each message it handles and each queue entry it scans. Each report
/// returns the simulated microseconds to charge.
///
/// A meter holding a [`CostModel`] prices the reports; the default meter
/// holds none and returns 0 without looking at the action. Only
/// [`ProtocolSuite::build_metered`](crate::engine::ProtocolSuite::build_metered)
/// installs a priced one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Meter {
    model: Option<CostModel>,
}

impl Meter {
    /// A meter that prices every report with `model`.
    pub fn priced(model: CostModel) -> Self {
        Self { model: Some(model) }
    }

    /// The engine evaluated `action`.
    #[inline]
    pub fn evaluated<W: GameWorld>(&self, world: &W, action: &W::Action) -> u64 {
        self.model.map_or(0, |m| m.eval(world, action))
    }

    /// The server handled one message.
    #[inline]
    pub fn message(&self) -> u64 {
        self.model.map_or(0, |m| m.msg_cost_us)
    }

    /// The server scanned `entries` queue entries.
    #[inline]
    pub fn scanned(&self, entries: usize) -> u64 {
        self.model.map_or(0, |m| m.scan(entries))
    }
}
