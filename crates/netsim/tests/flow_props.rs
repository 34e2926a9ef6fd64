//! Property suite for the hybrid flow/packet engine.
//!
//! Three families of invariants:
//!
//! 1. **Byte conservation** — for any set of transfer sizes, the bytes
//!    the sink receives on the wire plus the bytes the fluid model
//!    carried equal the bytes the pure packet engine delivers (which in
//!    turn equal the requested totals). Transfers below the promotion
//!    threshold, promoted transfers, and mixtures all conserve. Content
//!    is pinned too: every data segment carries the bulk stream's bytes
//!    (`fill_bulk`) at its true stream offset, under both engines and
//!    across a demotion flush. Those bytes are synthesized lazily: a
//!    bulk segment is a `Payload::Bulk` range, and cutting any range,
//!    anywhere in the stream, into segments and reading each one
//!    rebuilds `fill_bulk`'s output.
//! 2. **Promotion/demotion idempotence** — forcing mid-transfer
//!    demotions (a packet-fidelity send while the tail is fluid) never
//!    loses or duplicates bytes, and every transfer still completes
//!    exactly once.
//! 3. **Fair-share correctness** — the integer virtual-time scheduler
//!    in `netsim::flow`, driven directly over arbitrary arrival/size
//!    schedules, matches a floating-point processor-sharing reference
//!    to microsecond tolerance, completing every flow in the same
//!    order.

use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::{ConnId, TcpTuning};
use netsim::flow::{fill_bulk, Completion, FluidState, LinkBandwidth, LinkId};
use netsim::host::HostConfig;
use netsim::packet::Payload;
use netsim::time::{Duration, SimTime};
use netsim::{EngineMode, SimConfig, Simulator};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

// ---------------------------------------------------------------------
// World-level conservation properties
// ---------------------------------------------------------------------

/// Bulk client: on connect, pops the next size off the script and
/// issues one transfer. Optionally pokes the connection with a 1-byte
/// packet-fidelity send 2 ms after connecting, which forces a demotion
/// whenever the tail is still fluid at that point.
struct ScriptedBulk {
    sizes: Rc<RefCell<VecDeque<u64>>>,
    poke: bool,
    pokes_sent: Rc<Cell<u64>>,
    delivered: Rc<Cell<u64>>,
    delivered_bytes: Rc<Cell<u64>>,
}

impl App for ScriptedBulk {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let size = self
                    .sizes
                    .borrow_mut()
                    .pop_front()
                    .expect("script exhausted");
                ctx.transfer(conn, size);
                if self.poke {
                    ctx.set_timer(Duration::from_millis(2), conn.0 * 2 + 1);
                }
            }
            AppEvent::BulkDelivered { conn, bytes } => {
                self.delivered.set(self.delivered.get() + 1);
                self.delivered_bytes.set(self.delivered_bytes.get() + bytes);
                // Linger long enough for packet-mode in-flight segments
                // (10 µs pacing apiece) to land before the FIN.
                ctx.set_timer(Duration::from_secs(1), conn.0 * 2);
            }
            AppEvent::Timer { token } => {
                let conn = ConnId(token / 2);
                if token % 2 == 1 {
                    self.pokes_sent.set(self.pokes_sent.get() + 1);
                    ctx.send(conn, vec![0x55]);
                } else {
                    ctx.fin(conn);
                }
            }
            _ => {}
        }
    }
}

/// Sink counting every wire byte that reaches the server app, closing
/// its half when the peer closes. With `check_content` set (runs whose
/// streams arrive gap-free from offset 0: no demotion, no poke), every
/// segment must also equal the bulk stream's bytes at the connection's
/// running offset.
struct CountingSink {
    bytes: Rc<Cell<u64>>,
    check_content: bool,
    offsets: HashMap<ConnId, u64>,
}

impl App for CountingSink {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Data { conn, data } => {
                self.bytes.set(self.bytes.get() + data.len() as u64);
                if self.check_content {
                    let offset = self.offsets.entry(conn).or_insert(0);
                    let mut want = vec![0u8; data.len()];
                    fill_bulk(&mut want, conn, *offset);
                    assert!(
                        data.bytes()[..] == want[..],
                        "{conn:?}: segment at offset {offset} is not the bulk stream"
                    );
                    *offset += data.len() as u64;
                }
            }
            AppEvent::PeerFin { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

struct WorldOutcome {
    sink_bytes: u64,
    delivered: u64,
    delivered_bytes: u64,
    pokes: u64,
    stats: netsim::sim::SimStats,
}

fn run_world(engine: EngineMode, sizes: &[u64], poke: bool, seed: u64) -> WorldOutcome {
    let config = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(config, seed);
    let server = sim.add_host(HostConfig::outside("sink"));
    let client = sim.add_host(HostConfig::china("client"));
    let sink_bytes = Rc::new(Cell::new(0u64));
    let sink = sim.add_app(Box::new(CountingSink {
        bytes: Rc::clone(&sink_bytes),
        check_content: !poke,
        offsets: HashMap::new(),
    }));
    let cap = sim.add_capture(Capture::with_filter(move |p| p.dst.0 == server));
    sim.listen((server, 443), sink);
    let script = Rc::new(RefCell::new(sizes.iter().copied().collect::<VecDeque<_>>()));
    let pokes_sent = Rc::new(Cell::new(0u64));
    let delivered = Rc::new(Cell::new(0u64));
    let delivered_bytes = Rc::new(Cell::new(0u64));
    let app = sim.add_app(Box::new(ScriptedBulk {
        sizes: script,
        poke,
        pokes_sent: Rc::clone(&pokes_sent),
        delivered: Rc::clone(&delivered),
        delivered_bytes: Rc::clone(&delivered_bytes),
    }));
    for i in 0..sizes.len() {
        sim.connect_at(
            SimTime::ZERO + Duration::from_millis(10 * i as u64),
            app,
            client,
            (server, 443),
            TcpTuning::default(),
        );
    }
    sim.run();
    check_wire_content(sim.capture(cap), sizes);
    WorldOutcome {
        sink_bytes: sink_bytes.get(),
        delivered: delivered.get(),
        delivered_bytes: delivered_bytes.get(),
        pokes: pokes_sent.get(),
        stats: sim.stats,
    }
}

/// Every client→server data segment on the wire carries the bulk
/// stream's bytes at its true stream offset, read off its sequence
/// number (`seq − ISN − 1`). A demotion flush resumes past the bytes
/// the fluid model carried, with its sequence numbers advanced by the
/// same amount, so this pins the flushed suffix too. A poke is the one
/// byte sent after the transfer, at offset `total`, and is skipped.
fn check_wire_content(cap: &Capture, sizes: &[u64]) {
    let mut isn: HashMap<ConnId, u32> = HashMap::new();
    let mut checked = 0usize;
    for p in cap.packets() {
        if p.flags.syn {
            isn.insert(p.conn, p.seq);
            continue;
        }
        if p.payload.is_empty() {
            continue;
        }
        // Connections are numbered in `connect_at` order, which is
        // also the order their sizes are popped off the script.
        let total = sizes[p.conn.0 as usize];
        let start = isn[&p.conn].wrapping_add(1);
        let offset = u64::from(p.seq.wrapping_sub(start));
        if offset == total {
            assert_eq!(p.payload.len(), 1, "{:?}: poke is one byte", p.conn);
            continue;
        }
        assert!(
            offset + p.payload.len() as u64 <= total,
            "{:?}: overrun",
            p.conn
        );
        let mut want = vec![0u8; p.payload.len()];
        fill_bulk(&mut want, p.conn, offset);
        assert!(
            p.payload.bytes()[..] == want[..],
            "{:?}: wire segment at offset {offset} is not the bulk stream",
            p.conn
        );
        checked += 1;
    }
    assert!(
        checked >= sizes.len(),
        "every transfer puts data on the wire"
    );
}

/// Transfer sizes spanning every regime: tiny (single segment), below
/// the promotion threshold, just above it, and solidly bulk.
fn size_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..1500,
        1500u64..20_000,
        20_000u64..60_000,
        60_000u64..400_000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wire bytes + fluid bytes under the hybrid engine equal the pure
    /// packet engine's wire bytes, which equal the requested totals.
    #[test]
    fn bytes_are_conserved_across_engines(
        sizes in proptest::collection::vec(size_strategy(), 1..8),
        seed in 0u64..1_000,
    ) {
        let total: u64 = sizes.iter().sum();
        let p = run_world(EngineMode::Packet, &sizes, false, seed);
        let h = run_world(EngineMode::Hybrid, &sizes, false, seed);
        prop_assert_eq!(p.sink_bytes, total);
        prop_assert_eq!(p.stats.fluid_bytes_modeled, 0);
        prop_assert_eq!(h.sink_bytes + h.stats.fluid_bytes_modeled, total);
        prop_assert_eq!(p.delivered, sizes.len() as u64);
        prop_assert_eq!(h.delivered, sizes.len() as u64);
        prop_assert_eq!(p.delivered_bytes, total);
        prop_assert_eq!(h.delivered_bytes, total);
    }

    /// Forced mid-transfer demotions keep conservation exact and every
    /// transfer completes exactly once; a demotion can happen at most
    /// once per promotion.
    #[test]
    fn demotion_conserves_bytes_and_completions(
        sizes in proptest::collection::vec(size_strategy(), 1..8),
        seed in 0u64..1_000,
    ) {
        let total: u64 = sizes.iter().sum();
        let h = run_world(EngineMode::Hybrid, &sizes, true, seed);
        prop_assert_eq!(
            h.sink_bytes + h.stats.fluid_bytes_modeled,
            total + h.pokes
        );
        prop_assert_eq!(h.delivered, sizes.len() as u64);
        prop_assert_eq!(h.delivered_bytes, total);
        prop_assert!(h.stats.flows_demoted <= h.stats.flows_promoted);
    }
}

/// Stream positions anywhere, with a third of cases within a few
/// segments below `u64::MAX`, where a range wraps to position 0.
fn position_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..20_000, (u64::MAX - 20_000)..=u64::MAX,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cutting `len` bytes of `conn`'s bulk stream at `offset` into
    /// `Bulk` segments of at most `cap` bytes, as the simulator does,
    /// and reading each one rebuilds `fill_bulk` over the whole range.
    /// Each segment's `len()` is its synthesized length, and it equals
    /// an app-bytes payload with the same content (and no other).
    #[test]
    fn lazy_bulk_segments_are_the_bulk_stream(
        conn in any::<u64>(),
        offset in position_strategy(),
        len in 0u32..12_000,
        cap in 1u32..1_600,
    ) {
        let conn = ConnId(conn);
        let mut want = vec![0u8; len as usize];
        fill_bulk(&mut want, conn, offset);
        let mut got = Vec::with_capacity(want.len());
        let mut at = 0u32;
        while at < len {
            let take = cap.min(len - at);
            let seg = Payload::Bulk {
                conn,
                offset: offset.wrapping_add(u64::from(at)),
                len: take,
            };
            let bytes = seg.bytes().into_owned();
            prop_assert_eq!(seg.len(), bytes.len());
            prop_assert_eq!(seg.len(), take as usize);
            prop_assert!(!seg.is_empty());
            let mut flipped = bytes.clone();
            flipped[0] ^= 1;
            prop_assert_eq!(&seg, &Payload::Bytes(bytes.clone().into()));
            prop_assert_ne!(&seg, &Payload::Bytes(flipped.into()));
            got.extend_from_slice(&bytes);
            at += take;
        }
        prop_assert!(got == want, "segments do not rebuild the stream");
    }
}

/// Deterministic anchor so the demotion property above is not
/// vacuously true: one large transfer with a 2 ms poke must actually
/// demote (the fluid tail of ~395 KiB needs ~3.2 ms of link time).
#[test]
fn poke_mid_transfer_forces_a_demotion() {
    let h = run_world(EngineMode::Hybrid, &[400_000], true, 7);
    assert_eq!(h.stats.flows_promoted, 1);
    assert_eq!(h.stats.flows_demoted, 1, "poke arrived after completion?");
    assert_eq!(h.delivered, 1);
    assert_eq!(h.delivered_bytes, 400_000);
    assert_eq!(
        h.sink_bytes + h.stats.fluid_bytes_modeled,
        400_000 + h.pokes
    );
}

// ---------------------------------------------------------------------
// Fair-share correctness against a floating-point reference
// ---------------------------------------------------------------------

/// Floating-point processor-sharing reference: every active flow gets
/// `capacity / n`; returns `(flow index, completion time in seconds)`
/// in completion order.
fn ps_reference(arrivals: &[(f64, f64)], capacity: f64) -> Vec<(usize, f64)> {
    let mut done: Vec<(usize, f64)> = Vec::new();
    let mut active: Vec<(usize, f64)> = Vec::new();
    let mut next = 0usize;
    let mut t = 0.0f64;
    const EPS: f64 = 1e-6;
    loop {
        let next_arrival = arrivals.get(next).map(|&(at, _)| at);
        if active.is_empty() {
            match next_arrival {
                Some(at) => {
                    t = at;
                    active.push((next, arrivals[next].1));
                    next += 1;
                    continue;
                }
                None => break,
            }
        }
        let n = active.len() as f64;
        let min_rem = active.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        let dt_finish = min_rem * n / capacity;
        let dt = match next_arrival {
            Some(at) if at - t < dt_finish => at - t,
            _ => dt_finish,
        };
        let served = dt * capacity / n;
        for f in active.iter_mut() {
            f.1 -= served;
        }
        t += dt;
        // Completions in arrival order among simultaneous finishers
        // (the integer scheduler breaks virtual-time ties by promotion
        // sequence).
        active.retain(|&(idx, rem)| {
            if rem <= EPS {
                done.push((idx, t));
                false
            } else {
                true
            }
        });
        if let Some(at) = next_arrival {
            if (t - at).abs() < 1e-12 {
                active.push((next, arrivals[next].1));
                next += 1;
            }
        }
    }
    done
}

/// Drive `FluidState` directly over an arrival schedule on one link,
/// collecting `(flow index, completion time)` via its single-pending-
/// event contract (exactly how the simulator drives it).
fn fluid_run(arrivals: &[(u64, u64)], bw: LinkBandwidth) -> Vec<(usize, SimTime)> {
    let link = LinkId::between(Some(netsim::Region::China), Some(netsim::Region::Outside));
    let mut fs = FluidState::new(bw);
    let mut pending: Option<(LinkId, u64, SimTime)> = None;
    let mut done: Vec<(usize, SimTime)> = Vec::new();
    let fire = |fs: &mut FluidState,
                pending: &mut Option<(LinkId, u64, SimTime)>,
                done: &mut Vec<(usize, SimTime)>| {
        let (l, epoch, at) = pending.take().expect("fire without pending");
        let mut out: Vec<Completion> = Vec::new();
        *pending = fs.on_advance(at, l, epoch, &mut out);
        for c in out {
            done.push((c.conn.0 as usize, at));
        }
    };
    for (i, &(at_ns, bytes)) in arrivals.iter().enumerate() {
        let at = SimTime(at_ns);
        while let Some(&(_, _, ev_at)) = pending.as_ref() {
            if ev_at > at {
                break;
            }
            fire(&mut fs, &mut pending, &mut done);
        }
        let r = fs.promote(
            at,
            ConnId(i as u64),
            link,
            bytes,
            bytes,
            false,
            netsim::AppId(0),
        );
        if r.is_some() {
            pending = r;
        }
    }
    let mut guard = 0u32;
    while pending.is_some() {
        fire(&mut fs, &mut pending, &mut done);
        guard += 1;
        assert!(guard < 1_000_000, "fluid loop did not converge");
    }
    assert_eq!(fs.active(), 0, "flows left unfinished");
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The integer virtual-time scheduler matches floating-point
    /// processor sharing: same completion order, times within
    /// microseconds.
    #[test]
    fn fair_share_matches_float_reference(
        raw_arrivals in proptest::collection::vec(
            // The vendored proptest has no tuple strategies; pack
            // (arrival ns, bytes) into one u64 and unpack below.
            0u64..(20_000_000u64 * 10_000_000u64),
            1..7,
        ),
    ) {
        let mut arrivals: Vec<(u64, u64)> = raw_arrivals
            .iter()
            .map(|&x| (x % 20_000_000, 1 + x / 20_000_000))
            .collect();
        arrivals.sort_by_key(|&(at, _)| at);
        let bw = LinkBandwidth::default();
        let capacity = 125_000_000.0f64;
        let got = fluid_run(&arrivals, bw);
        let float_arrivals: Vec<(f64, f64)> = arrivals
            .iter()
            .map(|&(at, b)| (at as f64 / 1e9, b as f64))
            .collect();
        let want = ps_reference(&float_arrivals, capacity);
        prop_assert_eq!(got.len(), arrivals.len());
        prop_assert_eq!(want.len(), arrivals.len());
        // Times agree within a generous rounding budget (the integer
        // model truncates per-event and re-arms on whole nanoseconds).
        for (&(gi, gt), &(wi, wt)) in got.iter().zip(&want) {
            let gt_s = gt.0 as f64 / 1e9;
            prop_assert!(
                (gt_s - wt).abs() < 2e-6 + wt * 1e-9,
                "flow {gi}: integer {gt_s}s vs reference {wt}s"
            );
            // Order may legitimately swap only when the reference has a
            // (near-)tie; otherwise indices must line up.
            if gi != wi {
                let other = want.iter().find(|&&(i, _)| i == gi).map(|&(_, t)| t)
                    .expect("completion for a flow the reference lacks");
                prop_assert!(
                    (other - wt).abs() < 2e-6,
                    "flow {gi} completed out of order vs reference"
                );
            }
        }
    }

    /// Work conservation: with a backlog present, the link serves at
    /// full capacity — total completion of a batch promoted together
    /// equals the serial transmission time of its byte sum.
    #[test]
    fn batch_drains_at_link_rate(
        sizes in proptest::collection::vec(65_536u64..1_048_576u64, 1..6),
    ) {
        let arrivals: Vec<(u64, u64)> = sizes.iter().map(|&b| (0u64, b)).collect();
        let got = fluid_run(&arrivals, LinkBandwidth::default());
        let total: u64 = sizes.iter().sum();
        let ideal_ns = total as f64 * 1e9 / 125_000_000.0;
        let last = got.iter().map(|&(_, t)| t.0).max().unwrap();
        prop_assert!(
            (last as f64 - ideal_ns).abs() < 2_000.0,
            "batch drained in {last} ns, ideal {ideal_ns} ns"
        );
    }
}
