//! The discrete-event simulator core.
//!
//! One `Simulator` owns the hosts, connections, applications, taps,
//! captures and the event queue. Determinism rules:
//!
//! * all randomness flows through one seeded `StdRng`;
//! * the event queue orders by `(time, insertion sequence)`, so ties are
//!   resolved by scheduling order, never by hash iteration; a SYN
//!   deadline, queued only once it heads the simulator's deadline FIFO,
//!   carries the sequence number reserved when its connection opened;
//! * apps communicate only through the command queue, applied in order.
//!
//! ## Simplifications relative to real TCP
//!
//! The perfect-network default has no loss, retransmission, or
//! congestion control: the paper's observables are flag sequences,
//! header fields and payloads, none of which depend on those
//! mechanisms. With an active [`crate::impair::ImpairmentSpec`] the
//! simulator adds exactly what loss makes necessary — a loss-triggered
//! per-segment retransmission machine (RTO with exponential backoff,
//! capped retries; RSTs and pure ACKs are never retransmitted) and
//! receiver-side in-order reassembly with duplicate suppression — while
//! keeping the zero-rate path byte-identical to the perfect network.
//! Congestion control stays out of scope either way. Receive-window
//! shaping (brdgrd) is modelled as a per-segment size cap on the
//! client's sends while the shaper is active, with a small
//! inter-segment spacing, rather than a full sliding window.

use crate::app::{App, AppEvent, AppId, Command, Ctx};
use crate::capture::Capture;
use crate::conn::{
    CloseReason, ConnArena, ConnId, ConnState, Connection, DirSeq, ReorderState, SeqVerdict,
    TcpTuning,
};
use crate::eventq::EventQueue;
use crate::flow::{self, Completion, EngineMode, FluidState, LinkBandwidth, LinkId};
use crate::hash::HashMap;
use crate::host::{Host, HostArena, HostConfig, Region};
use crate::impair::{ImpairmentSpec, LinkImpairment};
use crate::internet::{InternetModel, RemoteOutcome};
use crate::packet::{Ipv4, Packet, Payload, SocketAddr, TcpFlags};
use crate::tap::{Tap, TapCtx, Verdict};
use crate::time::{Duration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Global simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// One-way latency between hosts in the same region.
    pub intra_region_latency: Duration,
    /// One-way latency across the China border.
    pub cross_border_latency: Duration,
    /// Maximum TCP segment size.
    pub mss: usize,
    /// Fate of connections to unregistered addresses.
    pub internet: InternetModel,
    /// Link impairment (loss/duplication/reordering/jitter) plus the
    /// retransmission policy that recovers from loss. The default is a
    /// strict no-op that leaves the schedule byte-identical to the
    /// perfect network.
    pub impairment: ImpairmentSpec,
    /// Which engine drives bulk transfers ([`Ctx::transfer`]): pure
    /// packet mode, or the hybrid engine that promotes transfer tails
    /// to the fluid model. Connections that never issue a transfer are
    /// byte-identical under both modes.
    ///
    /// [`Ctx::transfer`]: crate::app::Ctx::transfer
    pub engine: EngineMode,
    /// Per-link capacities for the fluid model.
    pub bandwidth: LinkBandwidth,
    /// Data segments a transfer emits at packet fidelity before its
    /// tail may promote — the detector-relevant first packets (the GFW
    /// model inspects only the first data packet; keeping a few more at
    /// wire fidelity leaves headroom for richer detectors).
    pub packet_phase_segments: u32,
    /// Minimum tail size worth promoting; smaller tails stay packets
    /// (the fixed promote/demote overhead would exceed the saving).
    pub fluid_min_bytes: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            intra_region_latency: Duration::from_millis(2),
            cross_border_latency: Duration::from_millis(50),
            mss: 1448,
            internet: InternetModel::default(),
            impairment: ImpairmentSpec::default(),
            engine: EngineMode::default(),
            bandwidth: LinkBandwidth::default(),
            packet_phase_segments: 3,
            fluid_min_bytes: 16_384,
        }
    }
}

/// Handle to a registered capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaptureId(usize);

/// One event-queue entry. Every variant is at most 16 bytes, so a queue
/// cell stays small; a packet in flight waits in the simulator's
/// [`InFlight`] slab and its event carries only the slot.
enum Event {
    /// The packet in this [`InFlight`] slot arrives.
    Deliver(u32),
    Timer {
        app: AppId,
        token: u64,
    },
    /// The head of the sorted pending-connect queue is due: open every
    /// connect whose time has arrived, in queue order. Keeping one
    /// queue entry for the whole schedule (instead of one per pending
    /// connect) bounds the event queue — and peak RSS — by the number
    /// of *distinct* connect times in flight, not the number of flows.
    OpenConn,
    /// The head of the SYN-deadline FIFO is due: time out its
    /// connection if it is still waiting for a SYN-ACK, then arm the
    /// next deadline whose connection still is. Only the head holds a
    /// queue entry, so a deadline whose handshake completes before the
    /// head reaches it never enters the queue.
    SynTimeout,
    RemoteRefused {
        conn: ConnId,
    },
    /// The lost segment in [`InFlight`] slot `slot` is due for
    /// retransmission attempt `attempt`.
    Retransmit {
        slot: u32,
        attempt: u32,
    },
    FluidAdvance {
        link: LinkId,
        epoch: u64,
    },
}

// A wider variant would widen every queue cell.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Packets in flight, each in the slot its [`Event::Deliver`] or
/// [`Event::Retransmit`] names. A packet is put in once when it goes on
/// the link and taken out once when its event fires; freed slots are
/// reused last in, first out, so the slab never outgrows the peak
/// number of packets in flight.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl InFlight {
    /// Store `pkt` and return its slot.
    fn put(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(pkt);
                slot
            }
            None => {
                // A u32 slot would overflow only with 2^32 packets
                // (320 GiB of them) in flight at once.
                let slot = self.slots.len() as u32;
                self.slots.push(Some(pkt));
                slot
            }
        }
    }

    /// Remove and return the packet in `slot`, freeing the slot. Each
    /// slot is filled once per event, so a firing event always finds
    /// its packet.
    fn take(&mut self, slot: u32) -> Option<Packet> {
        let pkt = self.slots.get_mut(slot as usize).and_then(Option::take);
        debug_assert!(pkt.is_some(), "in-flight slot {slot} fired empty");
        if pkt.is_some() {
            self.free.push(slot);
        }
        pkt
    }
}

/// How long a client waits for a SYN-ACK before its connect fails.
/// One value for every host, so deadlines taken in time order expire
/// in that order.
pub const SYN_TIMEOUT: Duration = Duration::from_secs(20);

/// Aggregate counters, cheap enough to keep always-on.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Connections ever created.
    pub connections: u64,
    /// Packets put on the wire.
    pub packets_sent: u64,
    /// Packets dropped by taps.
    pub packets_dropped: u64,
    /// Events processed.
    pub events: u64,
    /// Border-crossing packets offered to taps.
    pub packets_tapped: u64,
    /// Probe connections launched by apps (incremented by the GFW
    /// controller through [`crate::app::Ctx::stats`]).
    pub probes_launched: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
    /// Packets dropped in flight by link impairment (distinct from tap
    /// drops, which model active blocking).
    pub packets_lost: u64,
    /// Segments re-emitted by the loss-recovery machine.
    pub retransmits: u64,
    /// Packets held back by the reordering impairment.
    pub packets_reordered: u64,
    /// Extra copies injected by the duplication impairment.
    pub packets_duplicated: u64,
    /// Transfer tails promoted into the fluid model.
    pub flows_promoted: u64,
    /// Fluid flows demoted back to packet fidelity before completing
    /// (a send, FIN or RST needed wire fidelity mid-transfer).
    pub flows_demoted: u64,
    /// Bytes delivered by the fluid model instead of per-packet events
    /// (counted at completion/settle time, so conservation holds even
    /// for transfers aborted by an RST).
    pub fluid_bytes_modeled: u64,
}

impl SimStats {
    /// Fold another counter block into this one: counters add, the
    /// queue high-water mark takes the max.
    pub fn merge(&mut self, other: &SimStats) {
        self.connections += other.connections;
        self.packets_sent += other.packets_sent;
        self.packets_dropped += other.packets_dropped;
        self.events += other.events;
        self.packets_tapped += other.packets_tapped;
        self.probes_launched += other.probes_launched;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.packets_lost += other.packets_lost;
        self.retransmits += other.retransmits;
        self.packets_reordered += other.packets_reordered;
        self.packets_duplicated += other.packets_duplicated;
        self.flows_promoted += other.flows_promoted;
        self.flows_demoted += other.flows_demoted;
        self.fluid_bytes_modeled += other.fluid_bytes_modeled;
    }
}

struct PendingConnect {
    app: AppId,
    from: Ipv4,
    to: SocketAddr,
    tuning: TcpTuning,
    conn: ConnId,
}

/// The discrete-event network simulator.
///
/// Schedules that would mostly queue events that do nothing keep a
/// FIFO of their own instead, and only its head holds a queue entry:
/// pending connects, and SYN deadlines, which in an unblocked run
/// almost never fire because the handshake completes first.
pub struct Simulator {
    config: SimConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    /// The packets that queued `Deliver` and `Retransmit` events name.
    in_flight: InFlight,
    next_conn_id: u64,
    next_host_octet: u32,
    hosts: HostArena,
    listeners: HashMap<SocketAddr, AppId>,
    conns: ConnArena,
    apps: Vec<Option<Box<dyn App>>>,
    taps: Vec<Box<dyn Tap>>,
    captures: Vec<Capture>,
    /// Pending connects sorted by `(open time, call order)`. Only the
    /// head holds a queue entry ([`Event::OpenConn`]); each firing
    /// drains every due connect and re-arms for the new head.
    scheduled_connects: VecDeque<(SimTime, PendingConnect)>,
    /// Time of the earliest outstanding [`Event::OpenConn`], if any —
    /// the guard that keeps the common (monotone) schedule at exactly
    /// one queue entry.
    next_open_at: Option<SimTime>,
    /// SYN deadlines `(due, queue seq, conn)` in opening order, which is
    /// `(due, seq)` order because [`SYN_TIMEOUT`] is one constant. When
    /// non-empty, the head alone holds a queue entry
    /// ([`Event::SynTimeout`]), pushed under the seq reserved when its
    /// connection opened, so it ties exactly as a push made then would.
    syn_deadlines: VecDeque<(SimTime, u64, ConnId)>,
    fluid: FluidState,
    rng: StdRng,
    /// Scratch command buffer for [`Simulator::dispatch`], reused
    /// across callbacks. A dispatch takes it and puts it back drained;
    /// a nested dispatch meanwhile finds it empty and uses its own.
    commands: Vec<(AppId, Command)>,
    /// Scratch buffer for [`Simulator::handle_fluid_advance`]'s
    /// completions (same take/put-back discipline).
    completions: Vec<Completion>,
    /// Aggregate counters.
    pub stats: SimStats,
}

impl Simulator {
    /// Create a simulator with the given config and RNG seed.
    pub fn new(config: SimConfig, seed: u64) -> Simulator {
        Simulator {
            config,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            in_flight: InFlight::default(),
            next_conn_id: 0,
            next_host_octet: 0,
            hosts: HostArena::new(),
            listeners: HashMap::default(),
            conns: ConnArena::new(),
            apps: Vec::new(),
            taps: Vec::new(),
            captures: Vec::new(),
            scheduled_connects: VecDeque::new(),
            next_open_at: None,
            syn_deadlines: VecDeque::new(),
            fluid: FluidState::new(config.bandwidth),
            rng: StdRng::seed_from_u64(seed),
            commands: Vec::new(),
            completions: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of currently live (not fully closed) connections.
    pub fn live_connections(&self) -> usize {
        self.conns.len()
    }

    /// Register a host with an auto-assigned address (China hosts in
    /// 110.0.0.0/8, outside hosts in 172.0.0.0/8).
    pub fn add_host(&mut self, config: HostConfig) -> Ipv4 {
        let n = self.next_host_octet;
        self.next_host_octet += 1;
        let base = match config.region {
            Region::China => 110,
            Region::Outside => 172,
        };
        let addr = Ipv4::new(base, (n >> 16) as u8, (n >> 8) as u8, n as u8);
        self.add_host_with_addr(addr, config);
        addr
    }

    /// Register a host at a specific address (used by the prober fleet,
    /// whose addresses carry AS semantics).
    pub fn add_host_with_addr(&mut self, addr: Ipv4, config: HostConfig) {
        let host = Host::new(addr, config, &mut self.rng);
        self.hosts.insert(host);
    }

    /// True if `addr` is a registered host.
    pub fn has_host(&self, addr: Ipv4) -> bool {
        self.hosts.index_of(addr).is_some()
    }

    /// Enable or disable receive-window shaping on a host at runtime —
    /// how the brdgrd experiment (§7.1, Fig 11) toggles the shaper on a
    /// live server. Affects connections whose SYN-ACK is sent after the
    /// change.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a registered host.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics`: the caller names a host it registered"
    )]
    pub fn set_window_shaper(&mut self, addr: Ipv4, shaper: Option<crate::host::WindowShaper>) {
        self.hosts
            .by_addr_mut(addr)
            .expect("set_window_shaper: unknown host")
            .config
            .window_shaper = shaper;
    }

    /// Register an application.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        self.apps.push(Some(app));
        AppId((self.apps.len() - 1) as u32)
    }

    /// Bind `app` as the listener on `addr`.
    pub fn listen(&mut self, addr: SocketAddr, app: AppId) {
        self.listeners.insert(addr, app);
    }

    /// Stop listening on `addr`.
    pub fn unlisten(&mut self, addr: SocketAddr) {
        self.listeners.remove(&addr);
    }

    /// Register an on-path tap (sees all border-crossing packets).
    pub fn add_tap(&mut self, tap: Box<dyn Tap>) {
        self.taps.push(tap);
    }

    /// Register a capture; observes every packet at send time.
    pub fn add_capture(&mut self, cap: Capture) -> CaptureId {
        self.captures.push(cap);
        CaptureId(self.captures.len() - 1)
    }

    /// Read a capture.
    pub fn capture(&self, id: CaptureId) -> &Capture {
        &self.captures[id.0]
    }

    /// Mutable capture access (e.g. to clear between experiment phases).
    pub fn capture_mut(&mut self, id: CaptureId) -> &mut Capture {
        &mut self.captures[id.0]
    }

    /// Open a connection at time `at` (clamped to ≥ now) from host
    /// `from` to `to`, owned by `app`.
    pub fn connect_at(
        &mut self,
        at: SimTime,
        app: AppId,
        from: Ipv4,
        to: SocketAddr,
        tuning: TcpTuning,
    ) -> ConnId {
        let conn = ConnId(self.next_conn_id);
        self.next_conn_id += 1;
        let at = at.max(self.now);
        let pending = PendingConnect {
            app,
            from,
            to,
            tuning,
            conn,
        };
        // Insertion keeps `(time, call order)` sorting: after any
        // entries with an equal time, so same-time connects open in the
        // order they were requested. The common monotone schedule
        // appends without a search.
        let pos = match self.scheduled_connects.back() {
            Some(&(last, _)) if last > at => {
                let pos = self.scheduled_connects.partition_point(|&(t, _)| t <= at);
                self.scheduled_connects.insert(pos, (at, pending));
                pos
            }
            _ => {
                self.scheduled_connects.push_back((at, pending));
                self.scheduled_connects.len() - 1
            }
        };
        if pos == 0 {
            self.arm_open_event();
        }
        conn
    }

    /// Ensure an [`Event::OpenConn`] is queued for the head of the
    /// pending-connect schedule. Out-of-order `connect_at` calls can
    /// leave an already-queued later event behind; the stale firing
    /// drains nothing and is harmless.
    fn arm_open_event(&mut self) {
        if let Some(&(at, _)) = self.scheduled_connects.front() {
            if self.next_open_at.is_none_or(|t| at < t) {
                self.next_open_at = Some(at);
                self.push(at, Event::OpenConn);
            }
        }
    }

    /// Run until the event queue is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run while events exist and are scheduled at or before `until`,
    /// then advance the clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(head) = self.queue.next_time() {
            if head > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
    }

    /// Process one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events += 1;
        match ev {
            Event::Deliver(slot) => {
                if let Some(pkt) = self.in_flight.take(slot) {
                    self.handle_deliver(pkt);
                }
            }
            Event::Timer { app, token } => self.dispatch(app, AppEvent::Timer { token }),
            Event::OpenConn => {
                self.next_open_at = None;
                let now = self.now;
                while let Some((_, p)) = self
                    .scheduled_connects
                    .pop_front_if(|&mut (at, _)| at <= now)
                {
                    self.open_connection(p.app, p.from, p.to, p.tuning, p.conn);
                }
                self.arm_open_event();
            }
            Event::SynTimeout => self.handle_syn_timeout(),
            Event::RemoteRefused { conn } => self.handle_remote_refused(conn),
            Event::Retransmit { slot, attempt } => {
                if let Some(pkt) = self.in_flight.take(slot) {
                    self.handle_retransmit(pkt, attempt);
                }
            }
            Event::FluidAdvance { link, epoch } => self.handle_fluid_advance(link, epoch),
        }
        true
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn push(&mut self, at: SimTime, ev: Event) {
        let seq = self.queue.reserve_seq();
        self.push_reserved(at, seq, ev);
    }

    /// Queue `ev` under a seq from [`EventQueue::reserve_seq`].
    fn push_reserved(&mut self, at: SimTime, seq: u64, ev: Event) {
        self.queue.push_reserved(at, seq, ev);
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len() as u64);
    }

    /// Queue the delivery of `pkt` at `at`.
    fn push_deliver(&mut self, at: SimTime, pkt: Packet) {
        let slot = self.in_flight.put(pkt);
        self.push(at, Event::Deliver(slot));
    }

    fn region_of(&self, a: Ipv4) -> Option<Region> {
        self.hosts.by_addr(a).map(|h| h.config.region)
    }

    /// Endpoint regions for `pkt`, read from the connection's cached
    /// host handles when it is still live (the hot path) and falling
    /// back to address lookups only for packets that outlive their
    /// connection.
    fn pkt_regions(&self, pkt: &Packet) -> (Option<Region>, Option<Region>) {
        match self.conns.get(pkt.conn) {
            Some(c) if pkt.src == c.client => (c.client_region, c.server_region),
            Some(c) if pkt.src == c.server => (c.server_region, c.client_region),
            _ => (self.region_of(pkt.src.0), self.region_of(pkt.dst.0)),
        }
    }

    /// Latency and link impairment for `pkt`'s direction of travel.
    fn pkt_link(&self, pkt: &Packet) -> (Duration, LinkImpairment) {
        let (ra, rb) = self.pkt_regions(pkt);
        let latency = match (ra, rb) {
            (Some(x), Some(y)) if x != y => self.config.cross_border_latency,
            _ => self.config.intra_region_latency,
        };
        let link = match (ra, rb) {
            (Some(Region::China), Some(Region::Outside)) => self.config.impairment.cn_to_intl,
            (Some(Region::Outside), Some(Region::China)) => self.config.impairment.intl_to_cn,
            _ => self.config.impairment.intra,
        };
        (latency, link)
    }

    fn pkt_crosses_border(&self, pkt: &Packet) -> bool {
        matches!(self.pkt_regions(pkt), (Some(x), Some(y)) if x != y)
    }

    /// Build and transmit one packet on `conn`.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per TCP header field of the emitted packet"
    )]
    fn emit(
        &mut self,
        conn: ConnId,
        src: SocketAddr,
        dst: SocketAddr,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        window: u16,
        payload: Payload,
        extra_delay: Duration,
    ) {
        let (tuning, is_client_side, src_host) = match self.conns.get(conn) {
            Some(c) => {
                let is_client = c.client == src;
                let h = if is_client {
                    c.client_host
                } else {
                    c.server_host
                };
                (c.tuning, is_client, h)
            }
            None => (TcpTuning::default(), false, self.hosts.index_of(src.0)),
        };
        let (ttl, ip_id, tsval) = if let Some(hidx) = src_host {
            let use_random_id = tuning.random_ip_id && is_client_side;
            let ip_id = if use_random_id {
                self.rng.gen()
            } else {
                self.hosts.get_mut(hidx).next_ip_id(&mut self.rng)
            };
            let host = self.hosts.get(hidx);
            let ttl = if is_client_side {
                tuning.ttl.unwrap_or(host.config.initial_ttl)
            } else {
                host.config.initial_ttl
            };
            let clock = if is_client_side {
                tuning.ts_clock.unwrap_or(host.ts_clock)
            } else {
                host.ts_clock
            };
            // RSTs carry no timestamp option (RFC 7323; the paper's
            // TSval fingerprinting relies on non-RST segments).
            let tsval = if flags.rst {
                None
            } else {
                Some(clock.tsval(self.now))
            };
            (ttl, ip_id, tsval)
        } else {
            let id = self.rng.gen();
            let ts = if flags.rst {
                None
            } else {
                Some(self.rng.gen())
            };
            (64, id, ts)
        };

        let pkt = Packet {
            sent_at: self.now,
            src,
            dst,
            flags,
            seq,
            ack,
            window,
            ttl,
            ip_id,
            tsval,
            payload,
            conn,
            retx: false,
        };

        // Captures see everything at send time.
        for cap in &mut self.captures {
            cap.observe(&pkt);
        }
        self.stats.packets_sent += 1;

        // Taps only see border-crossing packets.
        if self.offer_to_taps(&pkt) {
            return;
        }

        self.transmit(pkt, extra_delay, 0);
    }

    /// Offer a border-crossing packet to the taps. Returns true if a
    /// tap dropped it (the drop is counted and any tap wakeups are
    /// scheduled either way).
    fn offer_to_taps(&mut self, pkt: &Packet) -> bool {
        if !self.pkt_crosses_border(pkt) {
            return false;
        }
        self.stats.packets_tapped += 1;
        let mut tap_ctx = TapCtx::new(self.now);
        let mut dropped = false;
        for tap in &mut self.taps {
            if tap.on_packet(pkt, &mut tap_ctx) == Verdict::Drop {
                dropped = true;
                break;
            }
        }
        for (app, at, token) in tap_ctx.take_wakeups() {
            self.push(at, Event::Timer { app, token });
        }
        if dropped {
            self.stats.packets_dropped += 1;
        }
        dropped
    }

    /// Segments the loss-recovery machine will re-emit: SYN, SYN-ACK,
    /// FIN and data. RSTs are fire-and-forget — real stacks do not
    /// retransmit them, so a lost RST is observed as a timeout, exactly
    /// the degradation `exp-all --only impair` measures. Pure ACKs are recovered
    /// implicitly by later traffic (a lost handshake-completing ACK is
    /// repaired when the first data segment arrives).
    fn retransmittable(pkt: &Packet) -> bool {
        !pkt.flags.rst && (pkt.flags.syn || pkt.flags.fin || pkt.has_payload())
    }

    /// Put `pkt` on the link, applying that link's impairment.
    ///
    /// The zero-rate path draws nothing from the RNG and schedules
    /// exactly one `Deliver`, keeping unimpaired runs byte-identical to
    /// the perfect-network simulator. Each probability is guarded by a
    /// `> 0.0` test before its Bernoulli draw so disabled mechanisms
    /// consume no randomness even when another mechanism is active.
    fn transmit(&mut self, pkt: Packet, extra_delay: Duration, attempt: u32) {
        let (latency, link) = self.pkt_link(&pkt);
        let base = latency + extra_delay;
        if link.is_noop() {
            self.push_deliver(self.now + base, pkt);
            return;
        }
        let spec = self.config.impairment;
        if link.loss > 0.0 && self.rng.gen_bool(link.loss_p()) {
            self.stats.packets_lost += 1;
            if Self::retransmittable(&pkt) && attempt < spec.rto_max_retries {
                let at = self.now + spec.rto_initial.backoff(attempt);
                let slot = self.in_flight.put(pkt);
                self.push(
                    at,
                    Event::Retransmit {
                        slot,
                        attempt: attempt + 1,
                    },
                );
            }
            return;
        }
        let mut delay = base;
        if link.jitter > Duration::ZERO {
            delay = delay + Duration::from_nanos(self.rng.gen_range(0..=link.jitter.as_nanos()));
        }
        if link.reorder > 0.0 && self.rng.gen_bool(link.reorder_p()) {
            self.stats.packets_reordered += 1;
            delay = delay + link.reorder_extra;
        }
        if link.duplicate > 0.0 && self.rng.gen_bool(link.duplicate_p()) {
            self.stats.packets_duplicated += 1;
            let copy_at = self.now + delay + Duration::from_micros(100);
            self.push_deliver(copy_at, pkt.clone());
        }
        self.push_deliver(self.now + delay, pkt);
    }

    /// Re-emit a lost segment: restamp its send time, mark it as a
    /// retransmission, and run it through captures, taps and the link
    /// again (active blocking applies to retransmissions too). The
    /// TSval is deliberately left at its first-transmission value — a
    /// documented simplification.
    fn handle_retransmit(&mut self, mut pkt: Packet, attempt: u32) {
        // The connection may have closed (RST, full FIN exchange) while
        // the retransmission timer was pending; give up silently.
        if !self.conns.contains(pkt.conn) {
            return;
        }
        pkt.sent_at = self.now;
        pkt.retx = true;
        self.stats.retransmits += 1;
        self.stats.packets_sent += 1;
        for cap in &mut self.captures {
            cap.observe(&pkt);
        }
        if self.offer_to_taps(&pkt) {
            return;
        }
        self.transmit(pkt, Duration::ZERO, attempt);
    }

    fn dispatch(&mut self, app: AppId, ev: AppEvent) {
        let idx = app.0 as usize;
        let Some(slot) = self.apps.get_mut(idx) else {
            return;
        };
        let Some(mut a) = slot.take() else { return };
        let mut commands = std::mem::take(&mut self.commands);
        {
            let mut ctx = Ctx {
                now: self.now,
                rng: &mut self.rng,
                app,
                commands: &mut commands,
                next_conn_id: &mut self.next_conn_id,
                stats: &mut self.stats,
            };
            a.on_event(ev, &mut ctx);
        }
        self.apps[idx] = Some(a);
        for (owner, cmd) in commands.drain(..) {
            self.apply(owner, cmd);
        }
        self.commands = commands;
    }

    fn apply(&mut self, owner: AppId, cmd: Command) {
        match cmd {
            Command::Send(conn, data) => {
                self.do_send(owner, conn, data.len() as u64, |at, take| {
                    let at = at as usize;
                    Payload::Bytes(Bytes::copy_from_slice(&data[at..at + take as usize]))
                })
            }
            Command::SendSynth {
                conn,
                synth,
                key,
                len,
            } => self.do_send(owner, conn, u64::from(len), |at, take| Payload::Synth {
                synth,
                key,
                offset: at as u16,
                len: take as u16,
            }),
            Command::Fin(conn) => self.do_fin(owner, conn),
            Command::Rst(conn) => self.do_rst(owner, conn),
            Command::Connect {
                from,
                to,
                tuning,
                conn,
            } => {
                self.open_connection(owner, from, to, tuning, conn);
            }
            Command::SetTimer { at, token } => {
                let at = at.max(self.now);
                self.push(at, Event::Timer { app: owner, token });
            }
            Command::Transfer(conn, bytes) => self.do_transfer(owner, conn, bytes),
        }
    }

    /// True if `owner` acts as the server side of `conn`.
    fn is_server_side(c: &Connection, owner: AppId) -> bool {
        c.server_app == Some(owner)
    }

    /// Send `total` bytes on `conn` as data segments. `segment(at,
    /// take)` describes the payload of the `take` bytes at offset `at`
    /// of what is being sent, so app bytes, synthesized messages and
    /// bulk ranges share this one segmentation loop.
    fn do_send(
        &mut self,
        owner: AppId,
        conn: ConnId,
        total: u64,
        segment: impl Fn(u64, u32) -> Payload,
    ) {
        if self.conns.get(conn).is_some_and(|c| c.fluid) {
            // A packet-fidelity send while the tail of an earlier
            // transfer is still fluid: demote first so the wire stream
            // stays in byte order.
            self.demote_and_flush(conn);
        }
        let Some(c) = self.conns.get(conn) else {
            return;
        };
        if c.is_closed() || total == 0 {
            return;
        }
        let from_server = Self::is_server_side(c, owner);
        let (src, dst) = if from_server {
            (c.server, c.client)
        } else {
            (c.client, c.server)
        };
        // Segment size: MSS, further capped for a shaped client.
        let cap = if from_server {
            self.config.mss
        } else {
            match c.client_send_cap {
                Some(w) => (w as usize).clamp(1, self.config.mss),
                None => self.config.mss,
            }
        };
        let mut seq = if from_server {
            c.server_seq
        } else {
            c.client_seq
        };
        let ack = if from_server {
            c.client_seq
        } else {
            c.server_seq
        };
        let mut offset = 0u64;
        let mut i = 0u64;
        while offset < total {
            let take = (cap as u64).min(total - offset) as u32;
            let chunk = segment(offset, take);
            // Small spacing between segments stands in for ACK pacing.
            let spacing = Duration::from_micros(10) * i;
            self.emit(
                conn,
                src,
                dst,
                TcpFlags::PSH_ACK,
                seq,
                ack,
                65535,
                chunk,
                spacing,
            );
            seq = seq.wrapping_add(take);
            offset += u64::from(take);
            i += 1;
        }
        if let Some(c) = self.conns.get_mut(conn) {
            if from_server {
                c.server_seq = seq;
            } else {
                c.client_seq = seq;
            }
        }
    }

    fn do_fin(&mut self, owner: AppId, conn: ConnId) {
        if self.conns.get(conn).is_some_and(|c| c.fluid) {
            // Teardown is a fingerprint-relevant edge: flush the fluid
            // remainder as packets so the FIN follows the data.
            self.demote_and_flush(conn);
        }
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        if c.is_closed() {
            return;
        }
        let from_server = Self::is_server_side(c, owner);
        let (src, dst) = if from_server {
            (c.server, c.client)
        } else {
            (c.client, c.server)
        };
        let (seq, ack) = if from_server {
            (c.server_seq, c.client_seq)
        } else {
            (c.client_seq, c.server_seq)
        };
        if from_server {
            c.server_seq = c.server_seq.wrapping_add(1);
        } else {
            c.client_seq = c.client_seq.wrapping_add(1);
        }
        // Local state: leaving it to the FIN delivery keeps one source of
        // truth; the sender's side is implicitly half-closed.
        self.emit(
            conn,
            src,
            dst,
            TcpFlags::FIN_ACK,
            seq,
            ack,
            65535,
            Payload::default(),
            Duration::ZERO,
        );
    }

    fn do_rst(&mut self, owner: AppId, conn: ConnId) {
        if self.conns.get(conn).is_some_and(|c| c.fluid) {
            // An abort discards the un-sent remainder; only service
            // already rendered by the link is credited.
            self.demote_and_discard(conn);
        }
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        if c.is_closed() {
            return;
        }
        let from_server = Self::is_server_side(c, owner);
        let (src, dst) = if from_server {
            (c.server, c.client)
        } else {
            (c.client, c.server)
        };
        let seq = if from_server {
            c.server_seq
        } else {
            c.client_seq
        };
        self.emit(
            conn,
            src,
            dst,
            TcpFlags::RST,
            seq,
            0,
            0,
            Payload::default(),
            Duration::ZERO,
        );
    }

    // ------------------------------------------------------------------
    // Hybrid engine: bulk transfers, promotion, demotion
    // ------------------------------------------------------------------

    /// Handle [`Command::Transfer`]: emit the detection-relevant head of
    /// the transfer at packet fidelity, then (hybrid engine, eligible
    /// connection) promote the tail into the fluid model.
    fn do_transfer(&mut self, owner: AppId, conn: ConnId, total: u64) {
        if total == 0 {
            return;
        }
        if self.conns.get(conn).is_some_and(|c| c.fluid) {
            // Back-to-back transfers: flush the previous tail first so
            // payload offsets stay contiguous on the wire.
            self.demote_and_flush(conn);
        }
        let Some(c) = self.conns.get(conn) else {
            return;
        };
        if c.is_closed() {
            return;
        }
        let from_server = Self::is_server_side(c, owner);
        let (src_region, dst_region) = if from_server {
            (c.server_region, c.client_region)
        } else {
            (c.client_region, c.server_region)
        };
        let link = LinkId::between(src_region, dst_region);
        // Shaped clients (brdgrd window clamping) must stay at packet
        // fidelity: the segment sizes ARE the observable under study.
        let shaped = !from_server && c.client_send_cap.is_some();
        let seg = if from_server {
            self.config.mss
        } else {
            match c.client_send_cap {
                Some(w) => (w as usize).clamp(1, self.config.mss),
                None => self.config.mss,
            }
        };
        let fluidize = self.config.engine == EngineMode::Hybrid
            && c.state == ConnState::Established
            && !shaped
            && self.config.impairment.is_noop()
            && self.fluid.can_promote(link);
        let phase = if fluidize {
            (u64::from(self.config.packet_phase_segments.max(1)))
                .saturating_mul(seg as u64)
                .min(total)
        } else {
            total
        };
        let tail = total - phase;
        let (phase, tail) = if fluidize && tail >= self.config.fluid_min_bytes {
            (phase, tail)
        } else {
            (total, 0)
        };
        self.send_bulk(owner, conn, 0, phase);
        if tail == 0 {
            // The whole transfer went out at packet fidelity; from the
            // sender's perspective it is complete once it is on the
            // wire (segments are in flight, pacing already applied).
            self.dispatch(owner, AppEvent::BulkDelivered { conn, bytes: total });
            return;
        }
        self.stats.flows_promoted += 1;
        if let Some(c) = self.conns.get_mut(conn) {
            c.fluid = true;
        }
        let resched = self
            .fluid
            .promote(self.now, conn, link, tail, total, from_server, owner);
        self.apply_resched(resched);
    }

    /// Send `len` bytes of `conn`'s bulk stream, starting at stream
    /// offset `offset`, at packet fidelity. Each segment describes its
    /// range; its bytes are synthesized only if something reads them.
    fn send_bulk(&mut self, owner: AppId, conn: ConnId, offset: u64, len: u64) {
        self.do_send(owner, conn, len, |at, take| Payload::Bulk {
            conn,
            offset: offset.wrapping_add(at),
            len: take,
        });
    }

    /// Schedule the (epoch-guarded) next fluid completion check.
    fn apply_resched(&mut self, r: flow::Resched) {
        if let Some((link, epoch, at)) = r {
            let at = at.max(self.now);
            self.push(at, Event::FluidAdvance { link, epoch });
        }
    }

    /// Advance the sender's wire sequence number past bytes the fluid
    /// model delivered, so post-demotion packets (resumed data, FIN)
    /// carry the sequence numbers the packet engine would have used.
    fn credit_fluid_delivery(&mut self, conn: ConnId, from_server: bool, bytes: u64) {
        if let Some(c) = self.conns.get_mut(conn) {
            if from_server {
                c.server_seq = c.server_seq.wrapping_add(bytes as u32);
            } else {
                c.client_seq = c.client_seq.wrapping_add(bytes as u32);
                c.client_bytes_seen = c.client_bytes_seen.saturating_add(bytes as usize);
            }
        }
    }

    /// Demote `conn` out of the fluid model, crediting service already
    /// rendered, and flush the remaining bytes as packets. The transfer
    /// then completes immediately from the sender's perspective
    /// ([`AppEvent::BulkDelivered`]), like an all-packet transfer.
    fn demote_and_flush(&mut self, conn: ConnId) {
        let Some((s, resched)) = self.fluid.settle(self.now, conn) else {
            if let Some(c) = self.conns.get_mut(conn) {
                c.fluid = false;
            }
            return;
        };
        if let Some(c) = self.conns.get_mut(conn) {
            c.fluid = false;
        }
        self.stats.flows_demoted += 1;
        self.stats.fluid_bytes_modeled += s.delivered;
        self.credit_fluid_delivery(conn, s.from_server, s.delivered);
        self.apply_resched(resched);
        if s.remaining > 0 {
            self.send_bulk(s.sender, conn, s.total - s.remaining, s.remaining);
        }
        self.dispatch(
            s.sender,
            AppEvent::BulkDelivered {
                conn,
                bytes: s.total,
            },
        );
    }

    /// Demote `conn` out of the fluid model for an abort: service
    /// already rendered is credited, the remainder is discarded, and no
    /// completion event fires (the transfer did not complete).
    fn demote_and_discard(&mut self, conn: ConnId) {
        let Some((s, resched)) = self.fluid.settle(self.now, conn) else {
            if let Some(c) = self.conns.get_mut(conn) {
                c.fluid = false;
            }
            return;
        };
        if let Some(c) = self.conns.get_mut(conn) {
            c.fluid = false;
        }
        self.stats.flows_demoted += 1;
        self.stats.fluid_bytes_modeled += s.delivered;
        self.credit_fluid_delivery(conn, s.from_server, s.delivered);
        self.apply_resched(resched);
    }

    /// A [`Event::FluidAdvance`] fired: collect ripe completions and
    /// deliver them.
    fn handle_fluid_advance(&mut self, link: LinkId, epoch: u64) {
        let mut done = std::mem::take(&mut self.completions);
        let resched = self.fluid.on_advance(self.now, link, epoch, &mut done);
        self.apply_resched(resched);
        for comp in done.drain(..) {
            if let Some(c) = self.conns.get_mut(comp.conn) {
                c.fluid = false;
            }
            self.stats.fluid_bytes_modeled += comp.bytes;
            self.credit_fluid_delivery(comp.conn, comp.from_server, comp.bytes);
            self.dispatch(
                comp.sender,
                AppEvent::BulkDelivered {
                    conn: comp.conn,
                    bytes: comp.total,
                },
            );
        }
        self.completions = done;
    }

    fn open_connection(
        &mut self,
        owner: AppId,
        from: Ipv4,
        to: SocketAddr,
        tuning: TcpTuning,
        conn: ConnId,
    ) {
        self.stats.connections += 1;
        // Host handles and regions are resolved once here; every
        // per-packet decision on this connection reads the cached copies.
        let client_host = self.hosts.index_of(from);
        let server_host = self.hosts.index_of(to.0);
        let client_region = client_host.map(|h| self.hosts.get(h).config.region);
        let server_region = server_host.map(|h| self.hosts.get(h).config.region);
        let src_port = tuning.src_port.unwrap_or_else(|| {
            let policy = client_host
                .map(|h| self.hosts.get(h).config.port_policy)
                .unwrap_or(crate::host::PortPolicy::LinuxEphemeral);
            policy.draw(&mut self.rng)
        });
        let client = (from, src_port);
        let isn: u32 = self.rng.gen();
        let server_isn: u32 = self.rng.gen();
        // In-order reassembly state, only paid for under impairment.
        // The simulator is omniscient, so both ISNs are known here and
        // each direction's sequencer starts at its ISN + 1.
        let reorder = if self.config.impairment.is_noop() {
            None
        } else {
            Some(Box::new(ReorderState {
                to_server: DirSeq::new(isn.wrapping_add(1)),
                to_client: DirSeq::new(server_isn.wrapping_add(1)),
            }))
        };
        let c = Connection {
            id: conn,
            client,
            server: to,
            client_host,
            server_host,
            client_region,
            server_region,
            server_notified: false,
            client_app: owner,
            server_app: None,
            state: ConnState::SynSent,
            tuning,
            client_seq: isn.wrapping_add(1),
            server_seq: server_isn,
            client_send_cap: None,
            client_bytes_seen: 0,
            client_sent_data: false,
            fluid: false,
            close_reason: None,
            reorder,
        };
        self.conns.insert(c);

        self.emit(
            conn,
            client,
            to,
            TcpFlags::SYN,
            isn,
            0,
            65535,
            Payload::default(),
            Duration::ZERO,
        );

        if server_host.is_some() {
            self.add_syn_deadline(conn);
        } else {
            // Unregistered destination: the Internet model decides.
            match self.config.internet.outcome(to, &mut self.rng) {
                RemoteOutcome::Refused { after } => {
                    self.push(self.now + after, Event::RemoteRefused { conn });
                }
                RemoteOutcome::BlackHole => self.add_syn_deadline(conn),
            }
        }
    }

    /// Start `conn`'s SYN deadline, taking the queue seq its own push
    /// would have taken here; only a deadline that becomes the FIFO's
    /// head is queued.
    fn add_syn_deadline(&mut self, conn: ConnId) {
        let due = self.now + SYN_TIMEOUT;
        let seq = self.queue.reserve_seq();
        self.syn_deadlines.push_back((due, seq, conn));
        if self.syn_deadlines.len() == 1 {
            self.push_reserved(due, seq, Event::SynTimeout);
        }
    }

    fn handle_deliver(&mut self, pkt: Packet) {
        let conn = pkt.conn;
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        // Control packets (RST, SYN, SYN-ACK) sit outside the byte
        // stream and bypass the sequencer; their handlers are
        // individually idempotent against duplicates. Data and FIN
        // segments go through per-direction in-order reassembly when
        // impairment is active.
        let sequenced = (pkt.flags.fin || pkt.has_payload()) && !pkt.flags.syn && !pkt.flags.rst;
        if !sequenced || c.reorder.is_none() {
            self.deliver_ordered(pkt);
            return;
        }
        let to_server = pkt.dst == c.server && pkt.src == c.client;
        let mut ready = Vec::new();
        if let Some(r) = c.reorder.as_deref_mut() {
            let dir = if to_server {
                &mut r.to_server
            } else {
                &mut r.to_client
            };
            match dir.accept(pkt.clone()) {
                SeqVerdict::Duplicate | SeqVerdict::Buffered => return,
                SeqVerdict::InOrder => {
                    dir.advance(&pkt);
                    ready.push(pkt);
                    while let Some(next) = dir.pop_ready() {
                        dir.advance(&next);
                        ready.push(next);
                    }
                }
            }
        }
        for p in ready {
            // Delivery can close and remove the connection (a FIN
            // completing the exchange); later segments then fall out at
            // deliver_ordered's connection lookup.
            self.deliver_ordered(p);
        }
    }

    /// Interpret one in-order (or pre-sequencer control) packet.
    fn deliver_ordered(&mut self, pkt: Packet) {
        let conn = pkt.conn;
        if (pkt.flags.rst || pkt.flags.fin) && self.conns.get(conn).is_some_and(|c| c.fluid) {
            // A wire event that demands packet fidelity while a fluid
            // transfer is in flight: demote before interpreting it. An
            // incoming RST aborts the transfer (remainder discarded); a
            // peer FIN only half-closes, so the remainder still flushes.
            if pkt.flags.rst {
                self.demote_and_discard(conn);
            } else {
                self.demote_and_flush(conn);
            }
        }
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        let to_server = pkt.dst == c.server && pkt.src == c.client;

        if pkt.flags.rst {
            let was_syn_sent = c.state == ConnState::SynSent;
            c.state = ConnState::Closed;
            c.close_reason = Some(CloseReason::Rst {
                by_client: !to_server,
            });
            let (client_app, server_app) = (c.client_app, c.server_app);
            self.conns.remove(conn);
            if to_server {
                if let Some(sa) = server_app {
                    self.dispatch(sa, AppEvent::PeerRst { conn });
                }
            } else if was_syn_sent {
                self.dispatch(
                    client_app,
                    AppEvent::ConnectFailed {
                        conn,
                        refused: true,
                    },
                );
            } else {
                self.dispatch(client_app, AppEvent::PeerRst { conn });
            }
            return;
        }

        if pkt.flags.syn && !pkt.flags.ack {
            self.handle_syn(conn, pkt);
            return;
        }

        if pkt.flags.syn && pkt.flags.ack {
            // SYN-ACK at the client: established.
            if c.state == ConnState::SynSent {
                c.state = ConnState::Established;
                if pkt.window != 65535 {
                    c.client_send_cap = Some(pkt.window.max(1));
                }
                let (client, server, capp) = (c.client, c.server, c.client_app);
                let (cseq, sack) = (c.client_seq, c.server_seq);
                self.emit(
                    conn,
                    client,
                    server,
                    TcpFlags::ACK,
                    cseq,
                    sack,
                    65535,
                    Payload::default(),
                    Duration::ZERO,
                );
                self.dispatch(capp, AppEvent::Connected { conn });
            }
            return;
        }

        if pkt.flags.fin {
            let by_client = to_server;
            let mut fully_closed = false;
            match c.state {
                ConnState::HalfClosed { by_client: first } if first != by_client => {
                    c.state = ConnState::Closed;
                    c.close_reason = Some(CloseReason::Fin);
                    fully_closed = true;
                }
                ConnState::Closed => fully_closed = true,
                _ => {
                    c.state = ConnState::HalfClosed { by_client };
                }
            }
            let target = if to_server {
                c.server_app
            } else {
                Some(c.client_app)
            };
            if fully_closed {
                self.conns.remove(conn);
            }
            if let Some(app) = target {
                self.dispatch(app, AppEvent::PeerFin { conn });
            }
            return;
        }

        if pkt.has_payload() {
            if to_server {
                c.client_bytes_seen += pkt.payload.len();
                c.client_sent_data = true;
                // Relax window shaping once enough client bytes arrived.
                let shaper = c
                    .server_host
                    .and_then(|h| self.hosts.get(h).config.window_shaper);
                if let Some(shaper) = shaper {
                    if c.client_bytes_seen >= shaper.restore_after_bytes {
                        c.client_send_cap = None;
                    }
                }
            }
            let target = if to_server {
                c.server_app
            } else {
                Some(c.client_app)
            };
            let (peer, local) = if to_server {
                (c.client, c.server)
            } else {
                (c.server, c.client)
            };
            if let Some(app) = target {
                let first = to_server && !c.server_notified;
                if first {
                    c.server_notified = true;
                }
                if first {
                    self.dispatch(app, AppEvent::ConnIncoming { conn, peer, local });
                }
                self.dispatch(
                    app,
                    AppEvent::Data {
                        conn,
                        data: pkt.payload,
                    },
                );
            }
            return;
        }

        // Pure ACK completing the handshake: tell the listener app.
        if pkt.flags.ack && to_server {
            if let Some(app) = c.server_app {
                let (peer, local) = (c.client, c.server);
                if !c.server_notified {
                    c.server_notified = true;
                    self.dispatch(app, AppEvent::ConnIncoming { conn, peer, local });
                }
            }
        }
    }

    fn handle_syn(&mut self, conn: ConnId, pkt: Packet) {
        let Some(dst_host) = self.hosts.index_of(pkt.dst.0) else {
            // Unregistered destination: fate already decided by the
            // Internet model at connect time; the SYN just disappears.
            return;
        };
        // A duplicated or redundantly-retransmitted SYN must not
        // re-accept the connection (or re-draw a shaped window).
        if self.conns.get(conn).is_some_and(|c| c.server_app.is_some()) {
            return;
        }
        let listener = self.listeners.get(&pkt.dst).copied();
        match listener {
            Some(app) => {
                // Window shaping decided by the server host config.
                let window = match self.hosts.get(dst_host).config.window_shaper {
                    Some(shaper) => {
                        let (lo, hi) = shaper.window_range;
                        self.rng.gen_range(lo..=hi)
                    }
                    None => 65535,
                };
                let Some(c) = self.conns.get_mut(conn) else {
                    return;
                };
                c.server_app = Some(app);
                if window != 65535 {
                    c.client_send_cap = Some(window.max(1));
                }
                let (server, client) = (c.server, c.client);
                let (sseq, cack) = (c.server_seq, c.client_seq);
                c.server_seq = c.server_seq.wrapping_add(1);
                self.emit(
                    conn,
                    server,
                    client,
                    TcpFlags::SYN_ACK,
                    sseq,
                    cack,
                    window,
                    Payload::default(),
                    Duration::ZERO,
                );
            }
            None => {
                // Connection refused: host exists but nothing listens.
                let Some(c) = self.conns.get(conn) else {
                    return;
                };
                let (server, client) = (c.server, c.client);
                let cack = c.client_seq;
                self.emit(
                    conn,
                    server,
                    client,
                    TcpFlags::RST,
                    0,
                    cack,
                    0,
                    Payload::default(),
                    Duration::ZERO,
                );
            }
        }
    }

    /// The FIFO head's deadline fired: fail its connection if it still
    /// waits for a SYN-ACK, drop every following deadline whose
    /// connection no longer does, and queue the new head before the app
    /// hears of the failure (its callback may open connections, which
    /// queue their deadline only into an empty FIFO).
    fn handle_syn_timeout(&mut self) {
        let mut failed = None;
        if let Some((due, _, conn)) = self.syn_deadlines.pop_front() {
            debug_assert_eq!(due, self.now, "only the FIFO head is queued");
            if let Some(c) = self.conns.get_mut(conn) {
                if c.state == ConnState::SynSent {
                    c.state = ConnState::Closed;
                    c.close_reason = Some(CloseReason::SynTimeout);
                    failed = Some((c.client_app, conn));
                    self.conns.remove(conn);
                }
            }
        }
        while let Some(&(due, seq, conn)) = self.syn_deadlines.front() {
            if self
                .conns
                .get(conn)
                .is_some_and(|c| c.state == ConnState::SynSent)
            {
                self.push_reserved(due, seq, Event::SynTimeout);
                break;
            }
            self.syn_deadlines.pop_front();
        }
        if let Some((app, conn)) = failed {
            self.dispatch(
                app,
                AppEvent::ConnectFailed {
                    conn,
                    refused: false,
                },
            );
        }
    }

    fn handle_remote_refused(&mut self, conn: ConnId) {
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        if c.state == ConnState::SynSent {
            c.state = ConnState::Closed;
            c.close_reason = Some(CloseReason::Refused);
            let app = c.client_app;
            self.conns.remove(conn);
            self.dispatch(
                app,
                AppEvent::ConnectFailed {
                    conn,
                    refused: true,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{App, AppEvent, Ctx};
    use crate::host::HostConfig;

    /// Sends a five-segment message as soon as it connects, then closes.
    struct Sender;

    impl App for Sender {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            if let AppEvent::Connected { conn } = ev {
                ctx.send(conn, vec![7u8; 6000]);
                ctx.fin(conn);
            }
        }
    }

    /// Accepts and ignores everything.
    struct Sink;

    impl App for Sink {
        fn on_event(&mut self, _ev: AppEvent, _ctx: &mut Ctx) {}
    }

    /// Twenty overlapping cross-border connections over links that lose,
    /// duplicate, reorder and jitter, so the RTO path and the duplicate
    /// `Deliver` path both run.
    fn impaired_world(seed: u64) -> Simulator {
        let link = LinkImpairment {
            loss: 0.2,
            duplicate: 0.2,
            reorder: 0.1,
            reorder_extra: Duration::from_millis(30),
            jitter: Duration::from_millis(2),
        };
        let config = SimConfig {
            impairment: ImpairmentSpec::symmetric(link),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, seed);
        let server = sim.add_host(HostConfig::outside("s"));
        let client = sim.add_host(HostConfig::china("c"));
        let sink = sim.add_app(Box::new(Sink));
        sim.listen((server, 1), sink);
        let sender = sim.add_app(Box::new(Sender));
        for i in 0..20 {
            let at = SimTime::ZERO + Duration::from_millis(3 * i);
            sim.connect_at(at, sender, client, (server, 1), TcpTuning::default());
        }
        sim
    }

    fn packets_in_flight(sim: &Simulator) -> usize {
        sim.in_flight.slots.iter().filter(|s| s.is_some()).count()
    }

    #[test]
    fn an_impaired_run_leaves_no_packet_in_flight() {
        let mut sim = impaired_world(1);
        sim.run();
        assert!(sim.stats.retransmits > 0, "no RTO fired");
        assert!(sim.stats.packets_duplicated > 0, "no duplicate was sent");
        assert_eq!(packets_in_flight(&sim), 0);
        assert_eq!(sim.in_flight.free.len(), sim.in_flight.slots.len());
    }

    #[test]
    fn the_in_flight_slab_never_outgrows_the_peak_in_flight() {
        // A step takes at most one packet out before it puts any in, so
        // the in-flight count peaks at the end of some step.
        let mut sim = impaired_world(2);
        let mut peak = packets_in_flight(&sim);
        while sim.step() {
            peak = peak.max(packets_in_flight(&sim));
        }
        assert!(
            sim.stats.packets_sent > 2 * peak as u64,
            "slots never reused"
        );
        assert_eq!(sim.in_flight.slots.len(), peak);
    }
}
