//! Spans recorded from outside the program.
//!
//! Every span is the benchmark timing its own call into a layer's
//! public function; nothing inside the simulator is instrumented. Spans
//! live in memory as `name start_ns end_ns parent` records and are
//! written once, when the child process exits.
//!
//! The GFW border tap has no public call the benchmark can wrap, so
//! [`TapBracket`] brackets it instead: a capture predicate (captures run
//! just before taps on the send path) stamps the time and stores
//! nothing, and a tap registered after the GFW's own tap closes the
//! interval. Packets that never cross the border open a bracket that
//! the next packet's stamp overwrites; packets a tap drops leave it
//! unclosed, and those are counted.

use netsim::capture::Capture;
use netsim::packet::Packet;
use netsim::tap::{Tap, TapCtx, Verdict};
use netsim::Simulator;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.run`.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder for one child process.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Start recording; times count from now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total seconds of every span called `name`.
pub fn secs_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |total, s| total + s.secs())
}

/// Self time of span `idx`: its duration minus the part of it that its
/// direct children cover.
pub fn self_secs(spans: &[Span], idx: usize) -> f64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    let own = &spans[idx];
    own.end_ns
        .saturating_sub(own.start_ns)
        .saturating_sub(covered) as f64
        / 1e9
}

/// Time spent between the capture stage and the end of the GFW taps,
/// summed over every border packet.
#[derive(Default)]
struct BracketState {
    stamp: Cell<Option<Instant>>,
    total_ns: Cell<u64>,
    closed: Cell<u64>,
}

/// Brackets the border taps registered before it (see module docs).
pub struct TapBracket(Rc<BracketState>);

struct ClosingTap(Rc<BracketState>);

impl Tap for ClosingTap {
    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut TapCtx) -> Verdict {
        if let Some(t0) = self.0.stamp.take() {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.0
                .total_ns
                .set(self.0.total_ns.get().saturating_add(ns));
            self.0.closed.set(self.0.closed.get() + 1);
        }
        Verdict::Pass
    }
}

impl TapBracket {
    /// Install on `sim` after every tap it should cover. Neither half
    /// touches the simulator's RNG or stores a packet, so seed-pure
    /// counters are unchanged.
    pub fn install(sim: &mut Simulator) -> TapBracket {
        let state = Rc::new(BracketState::default());
        let opener = Rc::clone(&state);
        sim.add_capture(Capture::with_filter(move |_p| {
            opener.stamp.set(Some(Instant::now()));
            false
        }));
        sim.add_tap(Box::new(ClosingTap(Rc::clone(&state))));
        TapBracket(state)
    }

    /// Seconds inside the bracketed taps.
    pub fn secs(&self) -> f64 {
        self.0.total_ns.get() as f64 / 1e9
    }

    /// Brackets closed: border packets that reached the closing tap.
    pub fn closed(&self) -> u64 {
        self.0.closed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("run", 0, 1_000, None),
            span("a", 100, 400, Some(0)),
            span("b", 300, 500, Some(0)),
            span("grandchild", 320, 330, Some(2)),
        ];
        // Children cover [100, 500): 400 ns of the parent's 1000.
        assert_eq!(self_secs(&spans, 0), 600e-9);
        assert_eq!(self_secs(&spans, 2), 190e-9);
        assert_eq!(secs_of(&spans, "a"), 300e-9);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut r = Recorder::new();
        let v = r.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
