//! The hierarchical timer-wheel event queue.
//!
//! A drop-in replacement for `BinaryHeap<Reverse<(SimTime, seq)>>` that
//! preserves the simulator's ordering contract **exactly**: entries pop
//! in ascending `(time, insertion sequence)` order, so timestamp ties
//! resolve by scheduling order. The differential proptest in
//! `tests/eventq_props.rs` pins this against a heap reference.
//!
//! ## Layout
//!
//! Time is bucketed into ticks of 2^`GRANULARITY_BITS` = 2^16 ns (≈65 µs —
//! far below the simulator's millisecond-scale latencies, so ties
//! within one tick are rare and cheap to sort). Six levels of 64 slots
//! cover a span of 64^6 ticks (2^52 ns, ≈52 days of simulated time).
//!
//! * an entry files at the level of the highest 6-bit field in which
//!   its tick differs from the cursor (`now_tick ^ tick`, as tokio's
//!   and Linux's timer wheels do); the slot is that field of its tick.
//!   An entry that differs above the top level waits in a small
//!   overflow heap;
//! * a level-L entry shares the cursor's fields above L and exceeds it
//!   in field L, so every entry at a lower level, or in a lower slot of
//!   level L, is earlier: the wheel minimum sits in the lowest occupied
//!   level's `trailing_zeros` slot of its 64-bit occupancy bitmap;
//! * every wheel entry lives in one slab with a free list; a slot is
//!   only the head index of a singly linked list through the slab
//!   (Varghese and Lauck's hashed hierarchical wheel, as in tokio's
//!   timer). Memory follows the peak number of live entries, not the
//!   sum of every slot's high-water mark;
//! * popping refills a small `ready` batch by walking only that slot's
//!   list: the cursor jumps to the smallest tick among its entries,
//!   which move into `ready` (their cells go back to the free list) and
//!   are sorted by `(time, seq)` once. The rest now differ from the
//!   cursor below level L, so they re-link in place strictly lower (the
//!   classic cascade), with no move and no allocation. Every other
//!   wheel entry keeps its slot;
//! * after each cursor move, overflow entries that now fit in the
//!   cursor's span move into the wheel, so the overflow only ever holds
//!   entries later than the whole wheel.
//!
//! Pushes for times at or before the cursor (the common "deliver after
//! zero-or-small latency during the current tick" case, or clamped
//! past-time timers) binary-search straight into the ready batch, so
//! they still interleave in exact `(time, seq)` order.
//!
//! Why not a plain sorted list or a calendar queue: the simulator's
//! schedule mixes microsecond packet latencies with multi-hour probe
//! pacing and month-scale experiment horizons. The hierarchy keeps
//! near events O(1) without degrading when a far horizon exists.

#![expect(
    clippy::disallowed_types,
    reason = "the overflow store behind the wheel is the one sanctioned heap"
)]

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// log2 of the tick length in nanoseconds.
const GRANULARITY_BITS: u32 = 16;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels.
const LEVELS: usize = 6;
/// Wheel span in ticks; a tick that differs from the cursor above it
/// goes to the overflow heap.
const SPAN_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    fn tick(&self) -> u64 {
        self.at.0 >> GRANULARITY_BITS
    }
}

// Ordering ignores the payload: `seq` is unique per queue, so the key
// is total and `T` needs no bounds.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The nil link: the end of a slot's list or of the free list.
const NIL: usize = usize::MAX;

/// One slab cell: a wheel entry (or `None` when the cell is free) and
/// the link to the next cell of its slot's list or of the free list.
struct Node<T> {
    entry: Option<Entry<T>>,
    next: usize,
}

/// A min-queue of `(SimTime, T)` entries ordered by `(time, insertion
/// sequence)` — the timer wheel plus its overflow heap.
pub struct EventQueue<T> {
    /// Wheel cursor: the tick of the most recent refill. All wheel and
    /// overflow entries are at ticks > the cursor.
    now_tick: u64,
    /// Next insertion sequence number (the tiebreaker).
    next_seq: u64,
    len: usize,
    /// Every wheel entry, in cells linked into per-slot lists; freed
    /// cells are reused before the slab grows.
    slab: Vec<Node<T>>,
    /// Head of the free-cell list.
    free: usize,
    /// `LEVELS × SLOTS` list heads into `slab`, flattened; entries
    /// within a slot are unordered until drained.
    heads: Vec<usize>,
    /// Per-level occupancy bitmaps.
    occ: [u64; LEVELS],
    /// The minimal tick's entries, sorted descending by `(at, seq)` so
    /// `pop` takes from the back.
    ready: Vec<Entry<T>>,
    /// Entries whose tick differs from the cursor above the top level.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            now_tick: 0,
            next_seq: 0,
            len: 0,
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; LEVELS * SLOTS],
            occ: [0; LEVELS],
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` at `at`. Ties with already-queued entries at the
    /// same time pop in push order.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.len = self.len.wrapping_add(1);
        self.insert(Entry { at, seq, item });
    }

    /// Pop the minimal entry.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        let e = self.ready.pop()?;
        self.len -= 1;
        Some((e.at, e.item))
    }

    /// Time of the minimal entry. `&mut` because the answer may require
    /// advancing the cursor (a deterministic, order-preserving step).
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        self.ready.last().map(|e| e.at)
    }

    /// File one entry into ready / wheel / overflow by its tick.
    fn insert(&mut self, e: Entry<T>) {
        let tick = e.tick();
        if tick <= self.now_tick {
            // At or before the cursor: interleave with the ready batch.
            let key = e.key();
            let pos = self.ready.partition_point(|x| x.key() > key);
            self.ready.insert(pos, e);
            return;
        }
        if tick ^ self.now_tick >= SPAN_TICKS {
            self.overflow.push(Reverse(e));
            return;
        }
        let node = Node {
            entry: Some(e),
            next: NIL,
        };
        let i = if self.free == NIL {
            self.slab.push(node);
            self.slab.len() - 1
        } else {
            let i = self.free;
            self.free = std::mem::replace(&mut self.slab[i], node).next;
            i
        };
        self.link(i, tick);
    }

    /// Link slab cell `i`, holding an entry at `tick` (> the cursor and
    /// within the span), at the head of its wheel slot's list.
    fn link(&mut self, i: usize, tick: u64) {
        // tick > cursor, so the xor is ≥ 1 and its high bit is defined.
        let diff = tick ^ self.now_tick;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let head = &mut self.heads[level * SLOTS + slot];
        self.slab[i].next = *head;
        *head = i;
        self.occ[level] |= 1 << slot;
    }

    /// Advance the cursor to the minimal queued tick and move every
    /// entry of that tick into `ready`, sorted. The drained slot's later
    /// entries re-link in place one or more levels lower (the cascade).
    fn refill(&mut self) {
        debug_assert!(self.ready.is_empty() && self.len > 0);
        if let Some(level) = self.occ.iter().position(|&bits| bits != 0) {
            let slot = self.occ[level].trailing_zeros() as usize;
            self.occ[level] &= !(1 << slot);
            let head = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
            let mut m = u64::MAX;
            let mut i = head;
            while i != NIL {
                let node = &self.slab[i];
                m = node.entry.as_ref().map_or(m, |e| m.min(e.tick()));
                i = node.next;
            }
            debug_assert!(m != u64::MAX && m > self.now_tick, "cursor must advance");
            self.now_tick = m;
            let mut i = head;
            while i != NIL {
                let node = &mut self.slab[i];
                let next = node.next;
                match node.entry.as_ref().map(Entry::tick) {
                    Some(tick) if tick != m => self.link(i, tick),
                    _ => {
                        self.ready.extend(node.entry.take());
                        node.next = self.free;
                        self.free = i;
                    }
                }
                i = next;
            }
        } else if let Some(Reverse(e)) = self.overflow.pop() {
            // Empty wheel: the overflow minimum is next.
            debug_assert!(e.tick() > self.now_tick, "cursor must advance");
            self.now_tick = e.tick();
            self.ready.push(e);
        }
        // Overflow entries that the move brought within the span file now,
        // before any later refill trusts the wheel to hold the minimum.
        let m = self.now_tick;
        while let Some(Reverse(e)) = self
            .overflow
            .peek_mut()
            .filter(|top| top.0.tick() ^ m < SPAN_TICKS)
            .map(PeekMut::pop)
        {
            if e.tick() == m {
                self.ready.push(e);
            } else {
                self.insert(e);
            }
        }

        // One sort per distinct timestamp tick; pop takes from the back.
        self.ready
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        debug_assert!(!self.ready.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(50), "b");
        q.push(SimTime(10), "a");
        q.push(SimTime(50), "c");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(50), "b")));
        assert_eq!(q.pop(), Some((SimTime(50), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_entries_take_the_overflow_path() {
        let mut q = EventQueue::new();
        let far = SimTime(SPAN_TICKS << (GRANULARITY_BITS + 2));
        q.push(far, "far");
        q.push(SimTime(1), "near");
        assert_eq!(q.next_time(), Some(SimTime(1)));
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn push_during_drain_interleaves_exactly() {
        let mut q = EventQueue::new();
        q.push(SimTime(1000), 1u32);
        q.push(SimTime(1000), 2);
        assert_eq!(q.pop(), Some((SimTime(1000), 1)));
        // Same tick, later seq: must come after the already-ready 2.
        q.push(SimTime(1000), 3);
        // Earlier time than anything ready: must come first.
        q.push(SimTime(999), 0);
        assert_eq!(q.pop(), Some((SimTime(999), 0)));
        assert_eq!(q.pop(), Some((SimTime(1000), 2)));
        assert_eq!(q.pop(), Some((SimTime(1000), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..100u64 {
            q.push(SimTime(i * 1_000_000), i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((SimTime(i * 1_000_000), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn cross_level_cascade_preserves_order() {
        let mut q = EventQueue::new();
        // Spread entries across all levels and the overflow.
        let mut times: Vec<u64> = (0..LEVELS as u32)
            .map(|l| 1u64 << (GRANULARITY_BITS + SLOT_BITS * l + 1))
            .collect();
        times.push(SPAN_TICKS << (GRANULARITY_BITS + 1));
        times.push(3);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, _)) = q.pop() {
            popped.push(at.0);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    /// Time at the start of `tick`.
    fn at(tick: u64) -> SimTime {
        SimTime(tick << GRANULARITY_BITS)
    }

    #[test]
    fn overflow_entry_entering_the_span_pops_before_a_later_wheel_push() {
        let mut q = EventQueue::new();
        // Both differ from cursor 0 above the top level: overflow.
        q.push(at(SPAN_TICKS + 10), "first");
        q.push(at(SPAN_TICKS + 20), "second");
        assert_eq!(q.overflow.len(), 2);
        // The cursor jumps to "first", which brings "second" in span.
        assert_eq!(q.pop(), Some((at(SPAN_TICKS + 10), "first")));
        assert!(q.overflow.is_empty());
        q.push(at(SPAN_TICKS + 30), "wheel");
        assert_eq!(q.pop(), Some((at(SPAN_TICKS + 20), "second")));
        assert_eq!(q.pop(), Some((at(SPAN_TICKS + 30), "wheel")));
        assert!(q.is_empty());
    }

    #[test]
    fn level_and_span_boundaries_pop_in_order() {
        let mut q = EventQueue::new();
        // Park the cursor on a tick aligned to no level.
        let c = 12_345_678;
        q.push(SimTime((c << GRANULARITY_BITS) | 777), 0);
        assert_eq!(q.pop().map(|(_, d)| d), Some(0));
        let deltas = [SPAN_TICKS, 4096, 63, SPAN_TICKS - 1, 64, 4095, 1];
        for &d in &deltas {
            q.push(at(c + d), d);
        }
        let mut sorted = deltas;
        sorted.sort_unstable();
        for d in sorted {
            assert_eq!(q.pop(), Some((at(c + d), d)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_far_future_queue_drains_one_slot_per_refill() {
        // The probe-pacing shape: a few entries hours apart.
        let hour = 3_600_000_000_000u64;
        let mut q = EventQueue::new();
        for h in [5u64, 1, 9, 3, 7] {
            q.push(SimTime(h * hour), h);
        }
        let occupied = |q: &EventQueue<u64>| -> Vec<usize> {
            (0..LEVELS * SLOTS).filter(|&i| q.heads[i] != NIL).collect()
        };
        let mut before = occupied(&q);
        assert_eq!(before.len(), 5, "one slot per entry");
        for h in [1u64, 3, 5, 7, 9] {
            assert_eq!(q.pop(), Some((SimTime(h * hour), h)));
            // The refill drained exactly one slot and re-filed nothing.
            let after = occupied(&q);
            assert_eq!(after.len() + 1, before.len());
            assert!(after.iter().all(|i| before.contains(i)));
            before = after;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slab_never_outgrows_the_peak_live_wheel_count() {
        // Fill one far slot, drain it, and repeat at other levels: every
        // drain returns its cells, and every later fill reuses them.
        const N: u64 = 500;
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for level in [5u32, 3, 1, 4, 2, 0, 5] {
            // The start of a slot three slots past the cursor's at `level`;
            // every tick below lies inside that one slot.
            let width = 1u64 << (SLOT_BITS * level);
            let base = (now / width + 3) * width;
            for i in 0..N {
                q.push(at(base + i % width), i);
            }
            assert!(q.slab.len() <= N as usize, "cells were not reused");
            let mut last = SimTime(0);
            for _ in 0..N {
                let (t, _) = q.pop().expect("N entries queued");
                assert!(t >= last);
                last = t;
                assert!(q.slab.len() <= N as usize, "a refill grew the slab");
            }
            assert!(q.is_empty());
            now = last.0 >> GRANULARITY_BITS;
        }
        assert_eq!(q.slab.len(), N as usize);
    }
}
