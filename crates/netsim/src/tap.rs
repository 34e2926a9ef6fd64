//! On-path middleboxes.
//!
//! A [`Tap`] sees every packet that crosses the China border (the only
//! place the paper's adversary sits) and returns a verdict. The GFW
//! model in `gfw-core` is implemented as a tap whose state is shared
//! (via `Rc<RefCell<..>>`) with a controller app that launches probes;
//! the tap requests controller wake-ups through [`TapCtx`].

use crate::app::AppId;
use crate::packet::Packet;
use crate::time::SimTime;

/// What a tap decides about a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Forward unchanged.
    Pass,
    /// Silently drop — the GFW's blocking mechanism is unidirectional
    /// null-routing (§6).
    Drop,
}

/// Context handed to taps: the clock plus the ability to schedule app
/// timers (how the GFW tap tells its controller app that probe orders
/// are pending).
pub struct TapCtx {
    /// Current simulation time.
    pub now: SimTime,
    pub(crate) wakeups: Vec<(AppId, SimTime, u64)>,
}

impl TapCtx {
    pub(crate) fn new(now: SimTime) -> TapCtx {
        TapCtx {
            now,
            wakeups: Vec::new(),
        }
    }

    /// Arrange for `app` to receive `AppEvent::Timer { token }` at `at`.
    pub fn wake_app(&mut self, app: AppId, at: SimTime, token: u64) {
        self.wakeups.push((app, at.max(self.now), token));
    }

    pub(crate) fn take_wakeups(&mut self) -> Vec<(AppId, SimTime, u64)> {
        std::mem::take(&mut self.wakeups)
    }
}

/// An on-path observer/filter.
pub trait Tap {
    /// Inspect one border-crossing packet.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TapCtx) -> Verdict;
}
