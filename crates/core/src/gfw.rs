//! The assembled Great Firewall: an on-path tap (passive detection +
//! blocking enforcement) and a controller application (probe launch +
//! reaction observation), sharing state.
//!
//! ```text
//!        border packets                probe connections
//!   ┌────────[tap]────────┐      ┌──────[controller app]─────┐
//!   │ blocking.should_drop │      │ fleet.assign → connect    │
//!   │ passive.should_store │ ───▶ │ send payload, watch       │
//!   │ scheduler.on_stored  │ wake │ reaction, classify, block │
//!   └─────────────────────┘      └───────────────────────────┘
//! ```

use crate::blocking::{BlockingConfig, BlockingModule};
use crate::classifier::{Classifier, Verdict};
use crate::fleet::{Fleet, FleetConfig};
use crate::passive::{PassiveConfig, PassiveDetector};
use crate::probe::{ProbeRecord, Reaction};
use crate::scheduler::{Scheduler, SchedulerConfig};
use netsim::app::{App, AppEvent, AppId, Ctx};
use netsim::conn::ConnId;
use netsim::hash::{HashMap, HashSet};
use netsim::packet::{Ipv4, Packet, SocketAddr};
use netsim::sim::Simulator;
use netsim::tap::{Tap, TapCtx, Verdict as TapVerdict};
use netsim::time::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Ground-truth-aware outcome counters for the passive stage.
///
/// Experiments that know which servers actually run Shadowsocks label
/// them via [`GfwState::label_shadowsocks_server`]; the tap then
/// attributes every first-payload store decision to a true/false
/// bucket, which is what the base-rate experiments read to compute
/// detector precision and recall. Without labels every decision lands
/// in a `*_false` bucket (the GFW itself never knows the truth — these
/// counters exist purely for evaluation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounters {
    /// First-data payloads inspected (one per connection).
    pub inspected: u64,
    /// Inspected payloads exempted by the plaintext-protocol whitelist.
    pub exempt: u64,
    /// Stored for replay, destination labelled Shadowsocks (true
    /// positives).
    pub stored_true: u64,
    /// Stored for replay, destination not labelled (false positives).
    pub stored_false: u64,
    /// Not stored although the destination is labelled (false
    /// negatives at the per-connection level).
    pub missed_true: u64,
    /// Not stored, destination not labelled (true negatives).
    pub passed_false: u64,
}

impl VerdictCounters {
    /// Stored decisions: the detector's positive count.
    pub fn positives(&self) -> u64 {
        self.stored_true.wrapping_add(self.stored_false)
    }

    /// Precision of the store decision: TP / (TP + FP). `None` when
    /// nothing was stored.
    pub fn precision(&self) -> Option<f64> {
        let p = self.positives();
        (p > 0).then(|| self.stored_true as f64 / p as f64)
    }

    /// Recall of the store decision: TP / (TP + FN). `None` when no
    /// labelled traffic was inspected.
    pub fn recall(&self) -> Option<f64> {
        let t = self.stored_true.wrapping_add(self.missed_true);
        (t > 0).then(|| self.stored_true as f64 / t as f64)
    }
}

/// Per-connection GFW bookkeeping, one map entry per connection the tap
/// still cares about. Collapsing the former `own_conns` + `seen_data`
/// `HashSet` pair into a single map halves the hash probes on the
/// per-packet hot path.
#[derive(Clone, Copy, Debug)]
enum ConnTrack {
    /// Created by the GFW itself (probe); never self-triggering.
    Own,
    /// First data packet already inspected; later packets skip straight
    /// past the detector, so the entropy histogram runs at most once per
    /// connection.
    SeenData,
}

/// Full GFW configuration.
#[derive(Clone, Debug, Default)]
pub struct GfwConfig {
    /// Passive detector parameters.
    pub passive: PassiveConfig,
    /// Scheduler parameters.
    pub scheduler: SchedulerConfig,
    /// Blocking policy.
    pub blocking: BlockingConfig,
    /// Prober fleet parameters.
    pub fleet: FleetConfig,
}

/// Mutable GFW state shared between the tap and the controller.
pub struct GfwState {
    /// Passive detector.
    pub passive: PassiveDetector,
    /// Probe scheduler / replay store.
    pub scheduler: Scheduler,
    /// Blocking module.
    pub blocking: BlockingModule,
    /// Reaction classifier.
    pub classifier: Classifier,
    /// Prober fleet.
    pub fleet: Fleet,
    /// Every probe ever launched, with reactions as they resolve.
    pub probe_log: Vec<ProbeRecord>,
    /// Per-connection tap state (own probes / already-inspected).
    conn_track: HashMap<ConnId, ConnTrack>,
    /// First-data packets inspected (trigger candidates).
    pub inspected: u64,
    /// Ground-truth-aware store-decision outcomes (evaluation only).
    verdicts: VerdictCounters,
    /// Ground-truth labels: destinations that really run Shadowsocks.
    truth: HashSet<Ipv4>,
    /// Stored-payload counts keyed by destination endpoint, for
    /// breaking down the false-positive surface by background protocol.
    stored_by_server: HashMap<SocketAddr, u64>,
    /// Due time of the one live order wake-up, if any. Same guard as
    /// `Simulator::next_open_at`: a wake-up is queued only when none is
    /// armed or the new due time overtakes the armed one. Arming on
    /// every stored payload and resolved probe without it piles up
    /// duplicate `TOKEN_ORDERS` timers that all fire at each due time.
    orders_armed: Option<SimTime>,
    rng: StdRng,
    controller: AppId,
}

/// Handle returned by [`Gfw::install`].
pub struct GfwHandle {
    /// Shared state for inspection by experiments.
    pub state: Rc<RefCell<GfwState>>,
    /// The controller's app id.
    pub controller: AppId,
}

/// Namespace for installation.
pub struct Gfw;

const TOKEN_ORDERS: u64 = u64::MAX;

impl Gfw {
    /// Install the GFW on a simulator: registers the prober fleet's
    /// hosts, the border tap, and the controller app.
    pub fn install(sim: &mut Simulator, config: GfwConfig, seed: u64) -> GfwHandle {
        let fleet = Fleet::install(sim, config.fleet.clone(), seed ^ 0xF1EE7);
        // Reserve the controller's app slot first so the state can name
        // it; the real app is pushed immediately after.
        let state = Rc::new(RefCell::new(GfwState {
            passive: PassiveDetector::new(config.passive.clone()),
            scheduler: Scheduler::new(config.scheduler.clone()),
            blocking: BlockingModule::new(config.blocking),
            classifier: Classifier::new(),
            fleet,
            probe_log: Vec::new(),
            conn_track: HashMap::default(),
            inspected: 0,
            verdicts: VerdictCounters::default(),
            truth: HashSet::default(),
            stored_by_server: HashMap::default(),
            orders_armed: None,
            rng: StdRng::seed_from_u64(seed),
            controller: AppId(u32::MAX),
        }));
        let controller = sim.add_app(Box::new(GfwController {
            state: state.clone(),
            pending: HashMap::default(),
            probe_timeout_secs: (5, 9),
            probe_retries: config.fleet.probe_retries,
        }));
        state.borrow_mut().controller = controller;
        sim.add_tap(Box::new(GfwTap {
            state: state.clone(),
        }));
        GfwHandle { state, controller }
    }
}

/// The border tap.
struct GfwTap {
    state: Rc<RefCell<GfwState>>,
}

impl Tap for GfwTap {
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TapCtx) -> TapVerdict {
        let mut st = self.state.borrow_mut();
        // 1. Enforcement: unidirectional null-routing.
        if st.blocking.should_drop(ctx.now, pkt) {
            return TapVerdict::Drop;
        }
        // 2+3. One hash probe resolves both "our own probe?" and
        // "already inspected?"; RST/FIN retires an inspected entry.
        match st.conn_track.get(&pkt.conn) {
            Some(ConnTrack::Own | ConnTrack::SeenData) => {
                // ConnIds are never reused, so retiring the entry on
                // teardown is safe for both variants — and necessary:
                // leaving probe entries in place retains one map slot
                // per probe for the lifetime of the simulation.
                if pkt.flags.rst || pkt.flags.fin {
                    st.conn_track.remove(&pkt.conn);
                }
                return TapVerdict::Pass;
            }
            None => {}
        }
        if pkt.flags.rst || pkt.flags.fin {
            return TapVerdict::Pass;
        }
        // 4. First data-carrying packet of a connection: passive stage.
        // One `features` call scores length and entropy together; a
        // bulk segment's bytes are synthesized here, once.
        if pkt.has_payload() {
            let payload = pkt.payload.bytes();
            let feats = st.passive.features(&payload);
            st.conn_track.insert(pkt.conn, ConnTrack::SeenData);
            st.inspected += 1;
            let server = pkt.dst;
            if feats.candidate {
                st.scheduler.on_candidate(server, feats.len);
            }
            let store = feats.store_probability > 0.0 && st.rng.gen_bool(feats.store_probability);
            // Evaluation bookkeeping: attribute the decision against
            // the experiment's ground-truth labels. Never feeds back
            // into GFW behaviour.
            st.verdicts.inspected = st.verdicts.inspected.wrapping_add(1);
            if feats.exempt {
                st.verdicts.exempt = st.verdicts.exempt.wrapping_add(1);
            }
            let labelled = st.truth.contains(&server.0);
            let bucket = match (store, labelled) {
                (true, true) => &mut st.verdicts.stored_true,
                (true, false) => &mut st.verdicts.stored_false,
                (false, true) => &mut st.verdicts.missed_true,
                (false, false) => &mut st.verdicts.passed_false,
            };
            *bucket = bucket.wrapping_add(1);
            if store {
                let count = st.stored_by_server.entry(server).or_insert(0);
                *count = count.wrapping_add(1);
                let GfwState { scheduler, rng, .. } = &mut *st;
                scheduler.on_stored_payload(ctx.now, server, &payload, rng);
                if let Some(due) = st.arm_orders() {
                    ctx.wake_app(st.controller, due, TOKEN_ORDERS);
                }
            }
        }
        TapVerdict::Pass
    }
}

struct PendingProbe {
    log_idx: usize,
    payload: Vec<u8>,
    sent: bool,
    retries_left: u32,
}

/// The controller app: fires due orders, observes reactions.
struct GfwController {
    state: Rc<RefCell<GfwState>>,
    pending: HashMap<ConnId, PendingProbe>,
    probe_timeout_secs: (u64, u64),
    probe_retries: u32,
}

impl GfwController {
    fn launch_due(&mut self, ctx: &mut Ctx) {
        let orders = {
            let mut st = self.state.borrow_mut();
            if st.orders_armed.is_some_and(|at| at <= ctx.now) {
                st.orders_armed = None;
            }
            st.scheduler.pop_due(ctx.now)
        };
        for order in orders {
            let (source, log_idx) = {
                let mut st = self.state.borrow_mut();
                let source = st.fleet.assign(ctx.now);
                let log_idx = st.probe_log.len();
                st.probe_log.push(ProbeRecord {
                    server: order.server,
                    kind: order.kind,
                    sent_at: ctx.now,
                    trigger_delay: order.trigger_delay,
                    trigger_id: order.trigger_id,
                    payload_len: order.payload.len(),
                    src: source.ip,
                    src_port: source.port,
                    process: source.process,
                    reaction: None,
                    attempts: 1,
                });
                (source, log_idx)
            };
            let conn = ctx.connect(source.ip, order.server, source.tuning);
            ctx.stats.probes_launched += 1;
            self.state
                .borrow_mut()
                .conn_track
                .insert(conn, ConnTrack::Own);
            self.pending.insert(
                conn,
                PendingProbe {
                    log_idx,
                    payload: order.payload,
                    sent: false,
                    retries_left: self.probe_retries,
                },
            );
        }
        // Re-arm for the next order.
        let next = self.state.borrow_mut().arm_orders();
        if let Some(due) = next {
            ctx.set_timer(due.since(ctx.now), TOKEN_ORDERS);
        }
    }

    /// A probe whose TCP connect failed is re-launched from a freshly
    /// assigned fleet source while its retry budget lasts (under link
    /// loss this is what keeps TIMEOUT-vs-CONNFAIL observations
    /// meaningful); once the budget is spent it resolves as
    /// `ConnectFailed`.
    fn retry_or_resolve(&mut self, conn: ConnId, ctx: &mut Ctx) {
        let can_retry = self.pending.get(&conn).is_some_and(|p| p.retries_left > 0);
        if !can_retry {
            self.resolve(conn, Reaction::ConnectFailed, ctx);
            return;
        }
        let Some(mut p) = self.pending.remove(&conn) else {
            return;
        };
        p.retries_left -= 1;
        p.sent = false;
        let (source, server) = {
            let mut st = self.state.borrow_mut();
            let source = st.fleet.assign(ctx.now);
            let rec = &mut st.probe_log[p.log_idx];
            let server = rec.server;
            rec.src = source.ip;
            rec.src_port = source.port;
            rec.process = source.process;
            rec.sent_at = ctx.now;
            rec.attempts += 1;
            (source, server)
        };
        let new_conn = ctx.connect(source.ip, server, source.tuning);
        ctx.stats.probes_launched += 1;
        self.state
            .borrow_mut()
            .conn_track
            .insert(new_conn, ConnTrack::Own);
        self.pending.insert(new_conn, p);
    }

    fn resolve(&mut self, conn: ConnId, reaction: Reaction, ctx: &mut Ctx) {
        let Some(p) = self.pending.remove(&conn) else {
            return;
        };
        let mut st = self.state.borrow_mut();
        st.probe_log[p.log_idx].reaction = Some(reaction);
        let record = st.probe_log[p.log_idx].clone();
        st.classifier
            .record(record.server, record.kind, record.payload_len, reaction);
        // Data response unlocks stage 2 for this server (§4.2).
        if reaction == Reaction::Data {
            let GfwState { scheduler, rng, .. } = &mut *st;
            scheduler.unlock_stage2(ctx.now, record.server, rng);
        }
        // Classification → possible blocking decision.
        if let Verdict::LikelyShadowsocks { confidence, .. } = st.classifier.verdict(record.server)
        {
            let GfwState { blocking, rng, .. } = &mut *st;
            blocking.consider(ctx.now, record.server, confidence, rng);
        }
        drop(st);
        // Wake ourselves in case stage-2 unlock queued new orders.
        let next = self.state.borrow_mut().arm_orders();
        if let Some(due) = next {
            ctx.set_timer(due.since(ctx.now), TOKEN_ORDERS);
        }
    }
}

impl App for GfwController {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Timer { token } if token == TOKEN_ORDERS => {
                self.launch_due(ctx);
            }
            AppEvent::Timer { token } => {
                // Per-probe timeout: the prober gives up and FINs first.
                let conn = ConnId(token);
                if self.pending.contains_key(&conn) {
                    ctx.fin(conn);
                    self.resolve(conn, Reaction::Timeout, ctx);
                }
            }
            AppEvent::Connected { conn } => {
                if let Some(p) = self.pending.get_mut(&conn) {
                    if !p.sent {
                        p.sent = true;
                        ctx.send(conn, p.payload.clone());
                        let secs = ctx
                            .rng
                            .gen_range(self.probe_timeout_secs.0..=self.probe_timeout_secs.1);
                        ctx.set_timer(Duration::from_secs(secs), conn.0);
                    }
                }
            }
            AppEvent::ConnectFailed { conn, .. } => {
                self.retry_or_resolve(conn, ctx);
            }
            AppEvent::Data { conn, .. } if self.pending.contains_key(&conn) => {
                ctx.fin(conn);
                self.resolve(conn, Reaction::Data, ctx);
            }
            AppEvent::PeerRst { conn } => {
                self.resolve(conn, Reaction::Rst, ctx);
            }
            AppEvent::PeerFin { conn } if self.pending.contains_key(&conn) => {
                ctx.fin(conn);
                self.resolve(conn, Reaction::FinAck, ctx);
            }
            _ => {}
        }
    }
}

impl GfwState {
    /// The due time to queue an order wake-up for, if one is needed:
    /// the scheduler's next due time when no wake-up is armed or when
    /// it is earlier than the armed one. Records the time it returns.
    /// A later wake-up that an earlier one overtook stays queued and
    /// fires as a no-op (it pops no orders and draws no randomness).
    fn arm_orders(&mut self) -> Option<SimTime> {
        let due = self.scheduler.next_due()?;
        if self.orders_armed.is_some_and(|at| at <= due) {
            return None;
        }
        self.orders_armed = Some(due);
        Some(due)
    }

    /// Immutable access to the probe log.
    pub fn probes(&self) -> &[ProbeRecord] {
        &self.probe_log
    }

    /// How many first-data packets the passive stage inspected.
    pub fn inspected_connections(&self) -> u64 {
        self.inspected
    }

    /// Label `ip` as a genuine Shadowsocks server for evaluation.
    /// Store decisions towards it count as true positives / false
    /// negatives in [`GfwState::verdict_counters`]. The label is
    /// invisible to the detection pipeline itself.
    pub fn label_shadowsocks_server(&mut self, ip: Ipv4) {
        self.truth.insert(ip);
    }

    /// Ground-truth-aware outcome counters (see [`VerdictCounters`]).
    pub fn verdict_counters(&self) -> VerdictCounters {
        self.verdicts
    }

    /// How many payloads destined to `server` the passive stage stored.
    pub fn stored_towards(&self, server: SocketAddr) -> u64 {
        self.stored_by_server.get(&server).copied().unwrap_or(0)
    }

    /// Connections the tap is still tracking (own probes plus
    /// inspected-but-not-yet-closed flows). Entries retire on RST/FIN,
    /// so after every connection tears down this returns to zero — the
    /// retention regression test pins that down.
    pub fn tracked_conns(&self) -> usize {
        self.conn_track.len()
    }
}
