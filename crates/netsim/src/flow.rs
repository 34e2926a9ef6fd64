//! Fluid bulk-transfer modeling — the flow half of the hybrid engine.
//!
//! Every fingerprint the paper exploits lives at flow *edges*: the SYN
//! handshake, the first data packet's length/entropy (§4), active
//! probes, RSTs and teardown (§5). The bytes in the middle of a bulk
//! transfer are detector-invisible — the GFW model inspects only the
//! first data packet of each connection — yet the pure packet engine
//! pays one event per MSS-sized segment for all of them, which caps
//! realistic flow populations far below the "millions of users" scale
//! the base-rate experiments need.
//!
//! The hybrid engine lets a connection run packet-by-packet through the
//! detection-relevant window, then *promotes* the remainder of a bulk
//! transfer into this module's fluid model: per-link processor sharing
//! (equal division is exactly max-min fairness here, because every flow
//! crosses a single bottleneck link), advanced in **integer virtual
//! time** so arrivals and departures never force an O(active flows)
//! re-computation:
//!
//! * each link accumulates `virt`, the cumulative per-flow service in
//!   *nanobytes* (`1 byte == 1_000_000_000 nanobytes`): over a real
//!   interval `dt` ns with `n` active flows and capacity `C` bytes/sec,
//!   `virt` grows by `C·dt/n` nanobytes (truncated);
//! * a flow promoted with `R` bytes remaining finishes when `virt`
//!   reaches `v_start + R·1e9` — a constant, *independent of later
//!   arrivals and departures*, so completions sit in an ordered map
//!   keyed by `(v_finish, promotion seq)` and only the link's single
//!   next-completion event is ever rescheduled (guarded by an epoch
//!   counter against staleness);
//! * byte conservation is exact: a completion delivers the flow's
//!   tracked remaining bytes outright, and a demotion settles
//!   `min(remaining, ⌊(virt − v_start)/1e9⌋)` as delivered, returning
//!   the integer remainder to the packet engine.
//!
//! The simulator (`sim.rs`) owns promotion/demotion *policy* — which
//! transfers qualify, which wire events force a flow back to packet
//! fidelity. This module owns the fluid *mechanism* and is deliberately
//! simulator-free so the fair-share invariants can be property-tested
//! against a floating-point processor-sharing reference without
//! standing up a world.

use crate::app::AppId;
use crate::conn::ConnId;
use crate::hash::HashMap;
use crate::host::Region;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Nanobytes per byte: the resolution of fluid virtual time. With
/// capacities in bytes/sec and time in nanoseconds, `C·dt` is exactly
/// a nanobyte count — no rounding enters until division by `n`.
const NANO: u128 = 1_000_000_000;

/// Which engine drives bulk transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Every byte of every transfer is segmented and delivered
    /// packet-by-packet (the pre-hybrid behaviour; the golden
    /// equivalence reference).
    Packet,
    /// Transfers run packet-by-packet through the detection-relevant
    /// window, then promote to the fluid model.
    #[default]
    Hybrid,
}

/// The three capacity domains of the simulated topology. Every
/// connection's payload crosses exactly one of them, which is what
/// makes equal-share processor sharing coincide with max-min fairness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkId {
    /// China → international transit (the censored egress direction).
    CnToIntl,
    /// International → China transit.
    IntlToCn,
    /// Traffic that never crosses the border.
    Intra,
}

impl LinkId {
    /// The link a payload stream crosses, given sender and receiver
    /// regions (unknown regions fall back to the intra domain, matching
    /// `Simulator::pkt_link`'s latency fallback).
    pub fn between(src: Option<Region>, dst: Option<Region>) -> LinkId {
        match (src, dst) {
            (Some(Region::China), Some(Region::Outside)) => LinkId::CnToIntl,
            (Some(Region::Outside), Some(Region::China)) => LinkId::IntlToCn,
            _ => LinkId::Intra,
        }
    }

    fn idx(self) -> usize {
        match self {
            LinkId::CnToIntl => 0,
            LinkId::IntlToCn => 1,
            LinkId::Intra => 2,
        }
    }
}

/// Per-link capacities in bytes/sec. A capacity of 0 disables fluid
/// promotion on that link (flows stay in packet mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkBandwidth {
    /// China → international capacity.
    pub cn_to_intl: u64,
    /// International → China capacity.
    pub intl_to_cn: u64,
    /// Intra-region capacity.
    pub intra: u64,
}

impl Default for LinkBandwidth {
    /// 1 Gbit/s each way across the border, 10 Gbit/s within a region —
    /// round figures for a mid-size transit path; the experiments that
    /// are equivalence-gated never promote, so these only shape the
    /// scale workloads.
    fn default() -> Self {
        LinkBandwidth {
            cn_to_intl: 125_000_000,
            intl_to_cn: 125_000_000,
            intra: 1_250_000_000,
        }
    }
}

impl LinkBandwidth {
    /// Capacity of one link domain.
    pub fn capacity(&self, link: LinkId) -> u64 {
        match link {
            LinkId::CnToIntl => self.cn_to_intl,
            LinkId::IntlToCn => self.intl_to_cn,
            LinkId::Intra => self.intra,
        }
    }

    /// Split every link's capacity across `n` equal independent cells.
    /// Each cell's fluid model then arbitrates its share on its own, so
    /// the aggregate offered capacity matches the single-simulator
    /// topology regardless of the cell count.
    pub fn divided(self, n: u64) -> LinkBandwidth {
        let n = n.max(1);
        LinkBandwidth {
            cn_to_intl: self.cn_to_intl / n,
            intl_to_cn: self.intl_to_cn / n,
            intra: self.intra / n,
        }
    }
}

/// A completed fluid flow, reported by [`FluidState::on_advance`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The connection.
    pub conn: ConnId,
    /// Bytes the fluid model delivered at completion (the flow's entire
    /// promoted remainder — conservation is exact by construction).
    pub bytes: u64,
    /// Total transfer size (packet phase + fluid), echoed for the
    /// `BulkDelivered` app event.
    pub total: u64,
    /// True if the server side was sending.
    pub from_server: bool,
    /// The app that issued the transfer.
    pub sender: AppId,
}

/// The result of demoting a flow mid-transfer ([`FluidState::settle`]).
#[derive(Clone, Copy, Debug)]
pub struct Settlement {
    /// Bytes the fluid model delivered up to the settle instant.
    pub delivered: u64,
    /// Bytes left undelivered; the simulator resumes them as packets.
    pub remaining: u64,
    /// Total transfer size (packet phase + fluid).
    pub total: u64,
    /// True if the server side was sending.
    pub from_server: bool,
    /// The app that issued the transfer.
    pub sender: AppId,
}

/// A rescheduling directive: the link's next-completion event to push,
/// as `(link, epoch, fire time)`. `None` means the link has no active
/// flows (any in-flight event for it is stale and will be ignored).
pub type Resched = Option<(LinkId, u64, SimTime)>;

/// One promoted flow's bookkeeping.
#[derive(Clone, Copy, Debug)]
struct FluidFlow {
    link: LinkId,
    /// Key of this flow's entry in the link's completion queue.
    key: (u128, u64),
    /// Link virtual time at promotion.
    v_start: u128,
    remaining: u64,
    total: u64,
    from_server: bool,
    sender: AppId,
}

/// Per-link processor-sharing scheduler state.
#[derive(Debug, Default)]
struct LinkSched {
    /// Capacity in bytes/sec (0 = promotion disabled).
    capacity: u64,
    /// Cumulative per-flow service, in nanobytes.
    virt: u128,
    /// Sim time of the last `virt` update.
    last: SimTime,
    /// Active fluid flows on this link.
    n: u64,
    /// Completion queue: `(v_finish, promotion seq) → conn`.
    queue: BTreeMap<(u128, u64), ConnId>,
    /// Bumped on every mutation; next-completion events carry the epoch
    /// they were scheduled under and are ignored when it is stale.
    epoch: u64,
}

impl LinkSched {
    /// Advance `virt` to `now`. Truncation loses under one nanobyte per
    /// call; `next_fire`'s ceiling rounding re-arms a whisker late
    /// rather than early, so the self-healing path in `on_advance`
    /// (no finisher ripe yet → reschedule) covers the residue.
    fn advance(&mut self, now: SimTime) {
        if self.n > 0 {
            let dt = u128::from(now.since(self.last).as_nanos());
            let grow = u128::from(self.capacity).wrapping_mul(dt) / u128::from(self.n);
            self.virt = self.virt.saturating_add(grow);
        }
        self.last = now;
    }

    /// When the earliest queued completion ripens, assuming `n` stays
    /// constant: `last + ⌈(v_finish − virt)·n / C⌉` ns. The ceiling
    /// guarantees `virt ≥ v_finish` at fire time when no intervening
    /// mutation advanced the clock.
    fn next_fire(&self) -> Option<SimTime> {
        let (&(v_finish, _), _) = self.queue.first_key_value()?;
        let need = v_finish.saturating_sub(self.virt);
        let cap = u128::from(self.capacity);
        if cap == 0 {
            return None;
        }
        let num = need.wrapping_mul(u128::from(self.n));
        let dt = num / cap + u128::from(num % cap != 0);
        let dt64 = u64::try_from(dt).unwrap_or(u64::MAX);
        Some(SimTime(self.last.as_nanos().saturating_add(dt64)))
    }

    /// Bump the epoch and emit the rescheduling directive for `link`.
    fn resched(&mut self, link: LinkId) -> Resched {
        self.epoch = self.epoch.wrapping_add(1);
        self.next_fire().map(|at| (link, self.epoch, at))
    }
}

/// All fluid-model state: three link schedulers plus the per-connection
/// flow table.
#[derive(Debug)]
pub struct FluidState {
    links: [LinkSched; 3],
    flows: HashMap<ConnId, FluidFlow>,
    next_seq: u64,
}

impl FluidState {
    /// Fresh state with the given link capacities.
    pub fn new(bw: LinkBandwidth) -> FluidState {
        let mk = |capacity: u64| LinkSched {
            capacity,
            ..LinkSched::default()
        };
        FluidState {
            links: [mk(bw.cn_to_intl), mk(bw.intl_to_cn), mk(bw.intra)],
            flows: HashMap::default(),
            next_seq: 0,
        }
    }

    /// Number of currently promoted flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// True if `conn` currently has a promoted flow.
    fn is_fluid(&self, conn: ConnId) -> bool {
        self.flows.contains_key(&conn)
    }

    /// True if `link` can host fluid flows (non-zero capacity).
    pub fn can_promote(&self, link: LinkId) -> bool {
        self.links[link.idx()].capacity > 0
    }

    /// Promote a transfer's remainder into the fluid model. The caller
    /// guarantees `remaining > 0`, a promotable link, and that `conn`
    /// is not already fluid. Returns the link's rescheduling directive.
    #[allow(
        clippy::too_many_arguments,
        reason = "called once per promotion with the caller's loose per-transfer state"
    )]
    pub fn promote(
        &mut self,
        now: SimTime,
        conn: ConnId,
        link: LinkId,
        remaining: u64,
        total: u64,
        from_server: bool,
        sender: AppId,
    ) -> Resched {
        debug_assert!(remaining > 0, "promoting an empty transfer");
        debug_assert!(!self.is_fluid(conn), "double promotion of {conn:?}");
        let sched = &mut self.links[link.idx()];
        sched.advance(now);
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let v_start = sched.virt;
        let v_finish = v_start.saturating_add(u128::from(remaining).wrapping_mul(NANO));
        let key = (v_finish, seq);
        sched.queue.insert(key, conn);
        sched.n = sched.n.wrapping_add(1);
        self.flows.insert(
            conn,
            FluidFlow {
                link,
                key,
                v_start,
                remaining,
                total,
                from_server,
                sender,
            },
        );
        self.links[link.idx()].resched(link)
    }

    /// Demote `conn`: credit the service it accrued and remove it from
    /// the model. Returns `None` if the connection has no fluid flow.
    pub fn settle(&mut self, now: SimTime, conn: ConnId) -> Option<(Settlement, Resched)> {
        let flow = self.flows.remove(&conn)?;
        let sched = &mut self.links[flow.link.idx()];
        sched.advance(now);
        sched.queue.remove(&flow.key);
        sched.n = sched.n.saturating_sub(1);
        let served = sched.virt.saturating_sub(flow.v_start) / NANO;
        let delivered = flow
            .remaining
            .min(u64::try_from(served).unwrap_or(u64::MAX));
        let settlement = Settlement {
            delivered,
            remaining: flow.remaining.saturating_sub(delivered),
            total: flow.total,
            from_server: flow.from_server,
            sender: flow.sender,
        };
        let resched = self.links[flow.link.idx()].resched(flow.link);
        Some((settlement, resched))
    }

    /// Handle a link's next-completion event: pop every flow whose
    /// virtual finish time has ripened into `out`, then re-arm. A stale
    /// `epoch` (a mutation intervened since the event was scheduled) is
    /// ignored outright — the mutation already re-armed the link.
    pub fn on_advance(
        &mut self,
        now: SimTime,
        link: LinkId,
        epoch: u64,
        out: &mut Vec<Completion>,
    ) -> Resched {
        let sched = &mut self.links[link.idx()];
        if sched.epoch != epoch {
            return None;
        }
        sched.advance(now);
        while let Some((&key, &conn)) = sched.queue.first_key_value() {
            if key.0 > sched.virt {
                break;
            }
            sched.queue.remove(&key);
            sched.n = sched.n.saturating_sub(1);
            // Every queue entry has a matching flow (settle removes
            // both under one lock-step); tolerate a desync rather than
            // panicking mid-simulation.
            debug_assert!(self.flows.contains_key(&conn), "queue entry without a flow");
            let Some(flow) = self.flows.remove(&conn) else {
                continue;
            };
            out.push(Completion {
                conn,
                bytes: flow.remaining,
                total: flow.total,
                from_server: flow.from_server,
                sender: flow.sender,
            });
        }
        self.links[link.idx()].resched(link)
    }
}

/// Deterministic bulk-transfer payload: byte `offset + i` of a
/// transfer on `conn` is a pure function of `(conn, position)`, so the
/// packet engine (whole transfer at once), the hybrid packet phase
/// (prefix) and a demotion flush (suffix at its true offset) all emit
/// the identical byte stream. High-entropy by construction — bulk
/// payloads should look like ciphertext, not zeros.
///
/// Byte `pos` is byte `pos & 7` (little-endian) of the 8-byte block
/// word for `pos >> 3`, so the buffer is written a whole block at a
/// time: the leading partial block, then aligned 8-byte chunks, then
/// the trailing partial block. Positions wrap at `u64::MAX`; because
/// 2^64 is a multiple of 8, a wrapping position stays block-aligned.
pub fn fill_bulk(buf: &mut [u8], conn: ConnId, offset: u64) {
    let word =
        |pos: u64| mix(conn.0 ^ (pos >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes();
    let skip = (offset & 7) as usize;
    let lead = if skip == 0 {
        0
    } else {
        (8 - skip).min(buf.len())
    };
    let (head, rest) = buf.split_at_mut(lead);
    if lead > 0 {
        head.copy_from_slice(&word(offset)[skip..skip + lead]);
    }
    let mut pos = offset.wrapping_add(lead as u64);
    let mut chunks = rest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&word(pos));
        pos = pos.wrapping_add(8);
    }
    let tail = chunks.into_remainder();
    let n = tail.len();
    if n > 0 {
        tail.copy_from_slice(&word(pos)[..n]);
    }
}

/// splitmix64 finalizer: cheap, stateless, well-distributed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: AppId = AppId(0);

    fn at(secs_num: u64, secs_den: u64) -> SimTime {
        SimTime(secs_num * 1_000_000_000 / secs_den)
    }

    #[test]
    fn single_flow_finishes_at_bytes_over_capacity() {
        // 1 MB at 125 MB/s → 8 ms.
        let mut fs = FluidState::new(LinkBandwidth::default());
        let r = fs.promote(
            SimTime::ZERO,
            ConnId(1),
            LinkId::CnToIntl,
            1_000_000,
            1_000_000,
            false,
            APP,
        );
        let (link, epoch, fire) = r.expect("one flow → one event");
        assert_eq!(link, LinkId::CnToIntl);
        assert_eq!(fire, SimTime(8_000_000));
        let mut done = Vec::new();
        let r2 = fs.on_advance(fire, link, epoch, &mut done);
        assert!(r2.is_none(), "no flows left");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 1_000_000);
        assert!(!fs.is_fluid(ConnId(1)));
    }

    #[test]
    fn two_equal_flows_share_the_link() {
        // Two 1 MB flows from t=0 at 125 MB/s: each gets half rate, both
        // finish at 16 ms (same virtual finish; FIFO by promotion seq).
        let mut fs = FluidState::new(LinkBandwidth::default());
        fs.promote(
            SimTime::ZERO,
            ConnId(1),
            LinkId::CnToIntl,
            1_000_000,
            1_000_000,
            false,
            APP,
        );
        let (link, epoch, fire) = fs
            .promote(
                SimTime::ZERO,
                ConnId(2),
                LinkId::CnToIntl,
                1_000_000,
                1_000_000,
                false,
                APP,
            )
            .expect("re-armed");
        assert_eq!(fire, SimTime(16_000_000));
        let mut done = Vec::new();
        fs.on_advance(fire, link, epoch, &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].conn, ConnId(1), "ties pop in promotion order");
        assert_eq!(done[1].conn, ConnId(2));
    }

    #[test]
    fn late_arrival_slows_the_first_flow() {
        // Flow A: 1 MB at t=0. Flow B arrives at 4 ms (A half done);
        // from then on each runs at half rate, so A finishes at
        // 4ms + 8ms = 12 ms.
        let mut fs = FluidState::new(LinkBandwidth::default());
        fs.promote(
            SimTime::ZERO,
            ConnId(1),
            LinkId::CnToIntl,
            1_000_000,
            1_000_000,
            false,
            APP,
        );
        let (link, epoch, fire) = fs
            .promote(
                at(4, 1000),
                ConnId(2),
                LinkId::CnToIntl,
                1_000_000,
                1_000_000,
                false,
                APP,
            )
            .expect("re-armed");
        assert_eq!(fire, SimTime(12_000_000), "A's completion moved out");
        let mut done = Vec::new();
        let r = fs.on_advance(fire, link, epoch, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].conn, ConnId(1));
        // B alone again: 0.5 MB left at full rate → 4 ms more.
        let (_, _, fire_b) = r.expect("B still active");
        assert_eq!(fire_b, SimTime(16_000_000));
    }

    #[test]
    fn settle_credits_elapsed_service_exactly() {
        let mut fs = FluidState::new(LinkBandwidth::default());
        fs.promote(
            SimTime::ZERO,
            ConnId(1),
            LinkId::IntlToCn,
            1_000_000,
            2_000_000,
            true,
            APP,
        );
        // At 2 ms, a lone flow at 125 MB/s has moved 250 KB.
        let (s, resched) = fs.settle(at(2, 1000), ConnId(1)).expect("was fluid");
        assert_eq!(s.delivered, 250_000);
        assert_eq!(s.remaining, 750_000);
        assert_eq!(s.total, 2_000_000);
        assert!(s.from_server);
        assert!(resched.is_none());
        assert!(fs.settle(at(2, 1000), ConnId(1)).is_none(), "idempotent");
    }

    #[test]
    fn stale_epoch_is_ignored() {
        let mut fs = FluidState::new(LinkBandwidth::default());
        let (link, old_epoch, fire) = fs
            .promote(
                SimTime::ZERO,
                ConnId(1),
                LinkId::CnToIntl,
                1_000_000,
                1_000_000,
                false,
                APP,
            )
            .expect("armed");
        // A settle intervenes: the event scheduled above is now stale.
        fs.settle(at(1, 1000), ConnId(1));
        let mut done = Vec::new();
        assert!(fs.on_advance(fire, link, old_epoch, &mut done).is_none());
        assert!(done.is_empty(), "stale event must not complete anything");
    }

    #[test]
    fn zero_capacity_disables_promotion() {
        let fs = FluidState::new(LinkBandwidth {
            cn_to_intl: 0,
            intl_to_cn: 1,
            intra: 1,
        });
        assert!(!fs.can_promote(LinkId::CnToIntl));
        assert!(fs.can_promote(LinkId::IntlToCn));
    }

    #[test]
    fn completions_resume_after_an_idle_gap() {
        // The link drains, sits idle, then a new flow arrives: virtual
        // time must not credit the idle gap to the new flow.
        let mut fs = FluidState::new(LinkBandwidth::default());
        let (link, epoch, fire) = fs
            .promote(
                SimTime::ZERO,
                ConnId(1),
                LinkId::CnToIntl,
                125_000,
                125_000,
                false,
                APP,
            )
            .expect("armed");
        let mut done = Vec::new();
        fs.on_advance(fire, link, epoch, &mut done);
        assert_eq!(done.len(), 1);
        // One second of idleness, then a 125 KB flow: 1 ms, not 0.
        let (_, _, fire2) = fs
            .promote(
                at(1, 1),
                ConnId(2),
                LinkId::CnToIntl,
                125_000,
                125_000,
                false,
                APP,
            )
            .expect("armed");
        assert_eq!(fire2, SimTime(1_001_000_000));
    }

    #[test]
    fn fill_bulk_is_offset_consistent() {
        let conn = ConnId(7);
        let mut whole = vec![0u8; 4096];
        fill_bulk(&mut whole, conn, 0);
        // Any split at any offset reproduces the same stream.
        for split in [1usize, 7, 8, 100, 1447, 4095] {
            let mut head = vec![0u8; split];
            let mut tail = vec![0u8; 4096 - split];
            fill_bulk(&mut head, conn, 0);
            fill_bulk(&mut tail, conn, split as u64);
            assert_eq!(&whole[..split], &head[..], "head split at {split}");
            assert_eq!(&whole[split..], &tail[..], "tail split at {split}");
        }
        // Different connections get different streams.
        let mut other = vec![0u8; 4096];
        fill_bulk(&mut other, ConnId(8), 0);
        assert_ne!(whole, other);
    }

    /// The byte-at-a-time definition `fill_bulk` must reproduce: byte
    /// `pos` is byte `pos & 7` of the block word for `pos >> 3`.
    fn fill_bulk_bytewise(buf: &mut [u8], conn: ConnId, offset: u64) {
        let mut block = u64::MAX;
        let mut word = 0u64;
        for (i, b) in buf.iter_mut().enumerate() {
            let pos = offset.wrapping_add(i as u64);
            if pos >> 3 != block {
                block = pos >> 3;
                word = mix(conn.0 ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            *b = (word >> ((pos & 7) << 3)) as u8;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The word-wise fill equals the byte-wise definition at every
        /// block alignment, across the `u64` offset wrap, and for every
        /// length from empty to three full segments plus a tail.
        #[test]
        fn fill_bulk_matches_bytewise(
            conn in proptest::prelude::any::<u64>(),
            offset in proptest::prop_oneof![0u64..16, (u64::MAX - 4400)..=u64::MAX],
            len in 0usize..=3 * 1448 + 17,
        ) {
            let mut fast = vec![0xAAu8; len];
            let mut slow = vec![0x55u8; len];
            fill_bulk(&mut fast, ConnId(conn), offset);
            fill_bulk_bytewise(&mut slow, ConnId(conn), offset);
            let diff = fast.iter().zip(&slow).position(|(a, b)| a != b);
            proptest::prop_assert!(
                diff.is_none(),
                "conn {conn} offset {offset} len {len}: first difference at byte {diff:?}"
            );
        }
    }

    #[test]
    fn fill_bulk_looks_high_entropy() {
        let mut buf = vec![0u8; 1 << 16];
        fill_bulk(&mut buf, ConnId(3), 0);
        let mut counts = [0u32; 256];
        for &b in &buf {
            counts[b as usize] += 1;
        }
        // Every byte value appears, none wildly over-represented.
        let (min, max) = (
            counts.iter().min().copied().unwrap(),
            counts.iter().max().copied().unwrap(),
        );
        assert!(min > 128, "min count {min}");
        assert!(max < 512, "max count {max}");
    }
}
