//! Fixture event queue — the one file where a heap is allowed.

#![expect(clippy::disallowed_types, reason = "the timer wheel's far-future overflow store")]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Far-future overflow store behind the (notional) timer wheel.
#[derive(Default)]
pub struct Overflow {
    heap: BinaryHeap<Reverse<u64>>,
}

impl Overflow {
    /// Park an entry beyond the wheel span.
    pub fn park(&mut self, tick: u64) {
        self.heap.push(Reverse(tick));
    }
}
