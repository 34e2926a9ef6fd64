//! Fixture scheduler built on a heap, which `clippy.toml` bans here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A comparison-ordered scheduler (banned here).
#[derive(Default)]
pub struct Sched {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Sched {
    /// Queue an item at a time.
    pub fn push(&mut self, at: u64, item: u32) {
        self.heap.push(Reverse((at, item)));
    }
}

/// An explicitly waived diagnostic helper.
#[expect(clippy::disallowed_types, reason = "diagnostic only, never schedules")]
pub fn waived_depth() -> usize {
    std::collections::BinaryHeap::<u32>::new().len()
}
