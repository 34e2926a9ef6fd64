//! Differential property test for the timer-wheel event queue.
//!
//! The wheel replaces `BinaryHeap<Reverse<(SimTime, seq)>>` on the
//! simulator's hottest path; its one contract is that any interleaved
//! sequence of pushes and pops produces exactly the heap's output —
//! ascending `(time, insertion sequence)` order, ties by push order.
//! The generated schedules deliberately mix:
//!
//! * same-tick ties (several pushes at one nanosecond timestamp);
//! * sub-tick neighbours (distinct times inside one 2^16 ns tick);
//! * every wheel level (delays spanning nanoseconds to days);
//! * far-future entries beyond the wheel span (the overflow heap);
//! * pushes at or before already-popped times (the ready-batch
//!   insertion path);
//! * pushes relative to the last popped time, one tick below, on and
//!   above every level boundary and the span edge, so cascades and
//!   overflow-to-wheel moves also run near a far cursor (an absolute
//!   push there is clamped into the ready batch);
//! * `next_time` calls between pushes and pops, as the simulator's run
//!   loop and the GFW scheduler make them: each may run a refill, so
//!   later pushes land in wheel cells that earlier drains freed;
//! * sequence numbers reserved now and pushed under later, after other
//!   pushes and pops, as the simulator queues SYN deadlines: the entry
//!   must tie by its reserved number, not by when it was pushed.

#![expect(
    clippy::disallowed_types,
    reason = "the heap is the reference oracle the wheel is checked against"
)]

use netsim::eventq::EventQueue;
use netsim::time::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference implementation: exactly the simulator's old queue.
#[derive(Default)]
struct HeapRef {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
}

impl HeapRef {
    fn push(&mut self, at: SimTime, item: u32) {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, item);
    }

    fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn push_reserved(&mut self, at: SimTime, seq: u64, item: u32) {
        self.heap.push(Reverse((at, seq, item)));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|Reverse((at, _, item))| (at, item))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    /// Push at the last popped time plus this many nanoseconds.
    PushAfter(u64),
    Pop,
    /// `next_time`, which may refill the ready batch between pushes.
    Peek,
    /// Reserve a sequence number for a later `PushReserved`.
    Reserve,
    /// Push under the oldest unused reserved number, at this time
    /// (clamped to the last popped time); a no-op when none is left.
    PushReserved(u64),
}

/// log2 of the wheel's tick length in nanoseconds.
const TICK_BITS: u32 = 16;
/// The wheel's span, 64^6 ticks, in nanoseconds.
const SPAN_NS: u64 = 1 << (36 + TICK_BITS);

/// Times that exercise every routing path in the wheel: same-tick
/// collisions, each hierarchy level, and beyond-span overflow.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense small times: same-tick ties and sub-tick neighbours.
        0u64..200_000,
        // Millisecond-to-minute band: wheel levels 0–3.
        0u64..60_000_000_000,
        // Hours-to-days band: upper levels.
        0u64..300_000_000_000_000,
        // Beyond the wheel span (~52 days): the overflow heap.
        (1u64 << 52)..(1u64 << 62),
        // Exact collisions by construction.
        (0u64..40).prop_map(|k| k * 1_000_000),
    ]
}

/// Delays that straddle every level boundary: 64^k ticks for k in
/// 0..=6 (k = 6 is the span edge), minus one, plus zero or one tick,
/// at four sub-tick offsets; plus uniform delays up to twice the span.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..7 * 3 * 4).prop_map(|x| {
            let ticks = 64u64.pow((x % 7) as u32) + (x / 7) % 3 - 1;
            (ticks << TICK_BITS) + (x / 21) * 16_000
        }),
        0u64..2 * SPAN_NS,
        Just(0),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        time_strategy().prop_map(Op::Push),
        time_strategy().prop_map(Op::Push),
        delta_strategy().prop_map(Op::PushAfter),
        delta_strategy().prop_map(Op::PushAfter),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Peek),
        Just(Op::Reserve),
        time_strategy().prop_map(Op::PushReserved),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Any interleaving of pushes and pops matches the heap reference
    /// exactly, including the final drain.
    #[test]
    fn wheel_matches_heap_reference(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel = EventQueue::new();
        let mut reference = HeapRef::default();
        // Pops must never go back in time relative to what was already
        // popped: the simulator clamps pushes to >= now. Model that by
        // clamping each pushed time to the last popped time.
        let mut now = 0u64;
        // Reserved numbers not yet pushed under, oldest first.
        let mut reserved = std::collections::VecDeque::new();
        for (i, op) in ops.iter().enumerate() {
            let push = match *op {
                Op::Push(t) => Some(SimTime(t.max(now))),
                Op::PushAfter(delta) => Some(SimTime(now + delta)),
                Op::Pop => {
                    let got = wheel.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        now = at.0;
                    }
                    None
                }
                Op::Peek => {
                    prop_assert_eq!(wheel.next_time(), reference.peek_time());
                    None
                }
                Op::Reserve => {
                    let seq = wheel.reserve_seq();
                    prop_assert_eq!(seq, reference.reserve_seq());
                    reserved.push_back(seq);
                    None
                }
                Op::PushReserved(t) => {
                    if let Some(seq) = reserved.pop_front() {
                        let at = SimTime(t.max(now));
                        wheel.push_reserved(at, seq, i as u32);
                        reference.push_reserved(at, seq, i as u32);
                    }
                    None
                }
            };
            if let Some(at) = push {
                wheel.push(at, i as u32);
                reference.push(at, i as u32);
            }
            prop_assert_eq!(wheel.len(), reference.heap.len());
        }
        loop {
            let got = wheel.pop();
            let want = reference.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// `next_time` always reports the time of the entry `pop` returns.
    #[test]
    fn next_time_agrees_with_pop(times in proptest::collection::vec(time_strategy(), 1..200)) {
        let mut wheel = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.push(SimTime(t), i);
        }
        while let Some(head) = wheel.next_time() {
            let (at, _) = wheel.pop().unwrap();
            assert_eq!(at, head);
        }
        assert!(wheel.is_empty());
    }
}
