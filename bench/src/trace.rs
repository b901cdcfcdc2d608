//! Stopwatches and spans around the harness's calls into each layer.
//!
//! Every call the harness makes into the program goes through
//! [`Meter::record`]. Measured reps keep only the three per-side
//! stopwatches; the traced rep runs the same code with span recording on
//! and additionally appends one [`Span`] per call. Spans are flat — the
//! harness sits at layer boundaries, it cannot see inside a call — so a
//! span's self time is its duration; `parent` is the span that *caused*
//! this one (the submit whose message this decode is reading, the push
//! whose frame this client is applying), which chains one action's journey
//! across virtual or wall time.

use seve_world::ids::ActionId;
use std::io::{self, Write};
use std::time::Instant;

/// Which of the three stopwatches a layer's time accrues to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Server = 0,
    Client = 1,
    Generator = 2,
}

/// A boundary the harness calls across. The name is `<module>.<call>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    WorldGen,
    ClientSubmit,
    ClientDeliver,
    UpEncode,
    DownDecode,
    UpDecode,
    DownEncode,
    ServerDeliver,
    ServerTick,
    ServerPush,
    FrameRead,
    FrameWrite,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::WorldGen,
        Layer::ClientSubmit,
        Layer::ClientDeliver,
        Layer::UpEncode,
        Layer::DownDecode,
        Layer::UpDecode,
        Layer::DownEncode,
        Layer::ServerDeliver,
        Layer::ServerTick,
        Layer::ServerPush,
        Layer::FrameRead,
        Layer::FrameWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::WorldGen => "world.gen",
            Layer::ClientSubmit => "core.client.submit",
            Layer::ClientDeliver => "core.client.deliver",
            Layer::UpEncode => "rt.wire.up_encode",
            Layer::DownDecode => "rt.wire.down_decode",
            Layer::UpDecode => "rt.wire.up_decode",
            Layer::DownEncode => "rt.wire.down_encode",
            Layer::ServerDeliver => "core.server.deliver",
            Layer::ServerTick => "core.server.tick",
            Layer::ServerPush => "core.server.push",
            Layer::FrameRead => "rt.frame.read",
            Layer::FrameWrite => "rt.frame.write",
        }
    }

    pub fn side(self) -> Side {
        match self {
            Layer::WorldGen => Side::Generator,
            Layer::ClientSubmit
            | Layer::ClientDeliver
            | Layer::UpEncode
            | Layer::DownDecode
            | Layer::FrameRead
            | Layer::FrameWrite => Side::Client,
            Layer::UpDecode
            | Layer::DownEncode
            | Layer::ServerDeliver
            | Layer::ServerTick
            | Layer::ServerPush => Side::Server,
        }
    }
}

/// One recorded call. A span's id is its index in the trace plus one; `0`
/// as a parent means "a timer, not another span, caused this".
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub action: Option<ActionId>,
}

/// More spans than the largest workload records (`melee`: 1.7 M).
const SPAN_RESERVE: usize = 1 << 21;

/// The per-side stopwatches, plus the span log when tracing.
pub struct Meter {
    epoch: Instant,
    side_ns: [u64; 3],
    spans: Option<Vec<Span>>,
}

impl Meter {
    pub fn new(traced: bool) -> Self {
        Self {
            epoch: Instant::now(),
            side_ns: [0; 3],
            // Reserved up front (address space, not memory): growing the
            // log by reallocation would stall the open-loop generator for
            // milliseconds in the middle of a rep.
            spans: traced.then(|| Vec::with_capacity(SPAN_RESERVE)),
        }
    }

    /// Account one call into `layer` that ran from `start` to `end`.
    /// Returns the span's id for use as a later span's `parent` (`0` when
    /// not tracing).
    pub fn record(
        &mut self,
        layer: Layer,
        start: Instant,
        end: Instant,
        parent: u32,
        action: Option<ActionId>,
    ) -> u32 {
        self.side_ns[layer.side() as usize] += (end - start).as_nanos() as u64;
        match &mut self.spans {
            None => 0,
            Some(spans) => {
                spans.push(Span {
                    layer,
                    start_ns: (start - self.epoch).as_nanos() as u64,
                    end_ns: (end - self.epoch).as_nanos() as u64,
                    parent,
                    action,
                });
                spans.len() as u32
            }
        }
    }

    pub fn side_ns(&self, side: Side) -> u64 {
        self.side_ns[side as usize]
    }

    pub fn into_spans(self) -> Option<Vec<Span>> {
        self.spans
    }
}

/// Sum, count and p99 of one layer's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub sum_ns: u64,
    pub calls: u64,
    pub p99_ns: u64,
}

/// Per-layer totals of a trace, indexed like [`Layer::ALL`].
pub fn layer_stats(spans: &[Span]) -> [LayerStats; 12] {
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); Layer::ALL.len()];
    for s in spans {
        durations[s.layer as usize].push((s.end_ns - s.start_ns) as f64);
    }
    let mut out = [LayerStats::default(); 12];
    for (stats, d) in out.iter_mut().zip(&durations) {
        stats.sum_ns = d.iter().sum::<f64>() as u64;
        stats.calls = d.len() as u64;
        stats.p99_ns = crate::stats::percentile(d, 0.99) as u64;
    }
    out
}

/// Write a trace as compact JSON: a table of layer names, the column
/// order, and one row per span (see README.md, "Reading a trace").
pub fn write_trace(w: &mut impl Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    write!(w, "{{\"workload\":\"{workload}\",\"names\":[")?;
    for (i, l) in Layer::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}\"{}\"", l.name())?;
    }
    writeln!(
        w,
        "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"id\",\"parent\",\"action\"],\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        write!(
            w,
            "{sep}[{},{},{},{},{},",
            s.layer as usize,
            s.start_ns,
            s.end_ns,
            i + 1,
            s.parent
        )?;
        match s.action {
            Some(a) => write!(w, "\"c{}:{}\"]", a.client.0, a.seq)?,
            None => write!(w, "null]")?,
        }
    }
    writeln!(w, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::ids::ClientId;
    use std::time::Duration;

    #[test]
    fn stopwatches_run_with_or_without_tracing() {
        for traced in [false, true] {
            let mut m = Meter::new(traced);
            let t = Instant::now();
            let id = m.record(Layer::ServerTick, t, t + Duration::from_nanos(700), 0, None);
            let a = ActionId::new(ClientId(3), 9);
            let child = m.record(
                Layer::DownDecode,
                t,
                t + Duration::from_nanos(50),
                id,
                Some(a),
            );
            assert_eq!(m.side_ns(Side::Server), 700);
            assert_eq!(m.side_ns(Side::Client), 50);
            assert_eq!(m.side_ns(Side::Generator), 0);
            assert_eq!((id, child), if traced { (1, 2) } else { (0, 0) });
            let spans = m.into_spans();
            assert_eq!(spans.map(|s| s.len()), traced.then_some(2));
        }
    }

    #[test]
    fn layer_stats_and_trace_file_agree_with_the_spans() {
        let mut m = Meter::new(true);
        let t = Instant::now();
        for ns in [100u64, 300, 200] {
            m.record(Layer::UpDecode, t, t + Duration::from_nanos(ns), 0, None);
        }
        let spans = m.into_spans().unwrap();
        let stats = layer_stats(&spans);
        let up = stats[Layer::UpDecode as usize];
        assert_eq!((up.sum_ns, up.calls, up.p99_ns), (600, 3, 300));
        assert_eq!(stats[Layer::WorldGen as usize].calls, 0);

        let mut out = Vec::new();
        write_trace(&mut out, "unit", &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"rt.wire.up_decode\""));
        assert_eq!(text.matches("null]").count(), 3);
    }
}
