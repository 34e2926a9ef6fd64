//! Per-server probe scheduling: stages, pacing, and the replay store.
//!
//! §4.2's central finding is that probing is *staged*: every suspected
//! server gets identical/byte-0 replays and NR2 random probes, but
//! R3/R4/R5 fire only after the server has answered a stage-1 probe
//! with data. On top of that we model two behaviours the paper
//! documents but does not explain mechanically:
//!
//! * probes are spread out, "a few of them in each hour" — a per-server
//!   minimum gap between random probes;
//! * NR1 probes appeared at real Shadowsocks servers but never in the
//!   random-data experiments. Genuine Shadowsocks traffic through one
//!   server has a *consistent* first-payload length remainder mod 16
//!   (same cipher, same framing), while the random-data experiments
//!   sent uniform lengths. We therefore gate NR1 on observing a
//!   consistent remainder across stored payloads. This is a modelling
//!   choice, recorded in DESIGN.md.

use crate::delay::DelayModel;
use crate::probe::ProbeKind;
use netsim::eventq::EventQueue;
use netsim::hash::HashMap;
use netsim::packet::SocketAddr;
use netsim::time::{Duration, SimTime};
use rand::Rng;

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Minimum gap between random (NR) probes to one server.
    pub nr_min_gap: Duration,
    /// Cap on stored payloads per server.
    pub max_stored: usize,
    /// Probability that a stage-2 replay occurrence is R5 (only two R5
    /// probes were ever observed).
    pub r5_prob: f64,
    /// Stored payloads needed before the remainder-consistency test.
    pub consistency_min: u64,
    /// Share the modal remainder must reach to count as consistent.
    pub consistency_share: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            nr_min_gap: Duration::from_mins(18),
            max_stored: 256,
            r5_prob: 0.01,
            consistency_min: 8,
            consistency_share: 0.5,
        }
    }
}

/// A probe ready to be fired at `due`.
#[derive(Clone, Debug)]
pub struct Order {
    /// When to fire.
    pub due: SimTime,
    /// Target.
    pub server: SocketAddr,
    /// Probe type.
    pub kind: ProbeKind,
    /// Payload (pre-built; replay payloads embed their byte changes).
    pub payload: Vec<u8>,
    /// For replay kinds: scheduled delay since the trigger connection.
    pub trigger_delay: Option<Duration>,
    /// For replay kinds: which stored payload this replays (groups the
    /// "first replay" vs "all replays" distinction of Fig 7).
    pub trigger_id: Option<u64>,
}

#[derive(Default)]
struct ServerSched {
    stage2: bool,
    stored: Vec<Vec<u8>>,
    remainder_counts: [u64; 16],
    next_nr_ok: SimTime,
    nr1_enabled: bool,
}

/// The probe scheduler: replay store, stages, pacing, order queue.
///
/// The order queue is a [`netsim::eventq::EventQueue`] (timer wheel),
/// which preserves the old binary heap's exact `(due, insertion)`
/// ordering.
pub struct Scheduler {
    /// Tuning.
    pub config: SchedulerConfig,
    delay_model: DelayModel,
    servers: HashMap<SocketAddr, ServerSched>,
    queue: EventQueue<Order>,
    next_trigger_id: u64,
}

impl Scheduler {
    /// Create with the given config.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        Scheduler {
            config,
            delay_model: DelayModel,
            servers: HashMap::default(),
            queue: EventQueue::new(),
            next_trigger_id: 0,
        }
    }

    fn push(&mut self, order: Order) {
        self.queue.push(order.due, order);
    }

    /// Earliest pending order's due time.
    pub fn next_due(&mut self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Pop all orders due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<Order> {
        let mut out = Vec::new();
        while self.queue.next_time().is_some_and(|due| due <= now) {
            let Some((_, order)) = self.queue.pop() else {
                break;
            };
            out.push(order);
        }
        out
    }

    /// Number of orders not yet popped.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True once the server is in stage 2.
    pub fn is_stage2(&self, server: SocketAddr) -> bool {
        self.servers.get(&server).is_some_and(|s| s.stage2)
    }

    /// Stage-1 replay kind mix (R1 dominates ~72/28, per Exp 1.a's
    /// 2,835 R1 vs 1,110 byte-changed replays).
    fn stage1_kind(rng: &mut impl Rng) -> ProbeKind {
        if rng.gen_bool(0.72) {
            ProbeKind::R1
        } else {
            ProbeKind::R2
        }
    }

    fn stage2_kind(&self, rng: &mut impl Rng) -> ProbeKind {
        if rng.gen_bool(self.config.r5_prob) {
            return ProbeKind::R5;
        }
        match rng.gen_range(0..100u32) {
            0..=34 => ProbeKind::R1,
            35..=49 => ProbeKind::R2,
            50..=74 => ProbeKind::R3,
            _ => ProbeKind::R4,
        }
    }

    /// Record a *candidate* connection (in-window, non-exempt) for the
    /// length-consistency statistics that gate NR1. Candidates are
    /// counted before the remainder-biased storage decision, so uniform
    /// random-data traffic never looks consistent (§4.2: NR1 absent
    /// from the random-data experiments), while genuine Shadowsocks
    /// traffic — constant framing overhead — does.
    pub fn on_candidate(&mut self, server: SocketAddr, payload_len: usize) {
        let config = self.config.clone();
        let st = self.servers.entry(server).or_default();
        st.remainder_counts[payload_len % 16] += 1;
        if !st.nr1_enabled {
            let total: u64 = st.remainder_counts.iter().sum();
            if total >= config.consistency_min {
                let max = st.remainder_counts.iter().copied().fold(0, u64::max);
                if max as f64 / total as f64 >= config.consistency_share {
                    st.nr1_enabled = true;
                }
            }
        }
    }

    /// The passive detector stored a payload from a suspected
    /// connection to `server`: schedule its replays and paced random
    /// probes.
    pub fn on_stored_payload(
        &mut self,
        now: SimTime,
        server: SocketAddr,
        payload: &[u8],
        rng: &mut impl Rng,
    ) {
        let config = self.config.clone();
        let st = self.servers.entry(server).or_default();
        if st.stored.len() < config.max_stored {
            st.stored.push(payload.to_vec());
        }
        let stage2 = st.stage2;
        let nr1 = st.nr1_enabled;
        let trigger_id = self.next_trigger_id;
        self.next_trigger_id += 1;

        // Replay occurrences.
        let occurrences = self.delay_model.replay_count(rng);
        for _ in 0..occurrences {
            let kind = if stage2 {
                self.stage2_kind(rng)
            } else {
                Self::stage1_kind(rng)
            };
            let delay = self.delay_model.sample(rng);
            let body = crate::probe::build_payload(kind, Some(payload), rng);
            self.push(Order {
                due: now + delay,
                server,
                kind,
                payload: body,
                trigger_delay: Some(delay),
                trigger_id: Some(trigger_id),
            });
        }

        // One paced random probe per stored payload. The entry exists:
        // it was made above.
        let st = self.servers.entry(server).or_default();
        let nr_kind = if nr1 && rng.gen_bool(0.25) {
            ProbeKind::Nr1
        } else {
            ProbeKind::Nr2
        };
        let jitter = Duration::from_secs(rng.gen_range(0..600));
        let due = (now + jitter).max(st.next_nr_ok);
        st.next_nr_ok = due + self.config.nr_min_gap;
        let body = crate::probe::build_payload(nr_kind, None, rng);
        self.push(Order {
            due,
            server,
            kind: nr_kind,
            payload: body,
            trigger_delay: None,
            trigger_id: None,
        });
    }

    /// A probe to `server` was answered with data: unlock stage 2
    /// (§4.2). Schedules an immediate wave of stage-2 replays from the
    /// stored payloads.
    pub fn unlock_stage2(&mut self, now: SimTime, server: SocketAddr, rng: &mut impl Rng) {
        let Some(st) = self.servers.get_mut(&server) else {
            return;
        };
        if st.stage2 {
            return;
        }
        st.stage2 = true;
        let stored: Vec<Vec<u8>> = st.stored.iter().take(16).cloned().collect();
        for payload in stored {
            for kind in [ProbeKind::R3, ProbeKind::R4] {
                let delay = Duration::from_secs(rng.gen_range(10..3_600));
                let body = crate::probe::build_payload(kind, Some(&payload), rng);
                self.push(Order {
                    due: now + delay,
                    server,
                    kind,
                    payload: body,
                    trigger_delay: Some(delay),
                    trigger_id: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::Ipv4;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server() -> SocketAddr {
        (Ipv4::new(172, 0, 0, 1), 8388)
    }

    fn hi_entropy(len: usize, rng: &mut StdRng) -> Vec<u8> {
        let mut p = vec![0u8; len];
        rng.fill(&mut p[..]);
        p
    }

    #[test]
    fn stored_payload_schedules_replays_and_nr() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let payload = hi_entropy(400, &mut rng);
        s.on_stored_payload(SimTime::ZERO, server(), &payload, &mut rng);
        assert!(s.pending() >= 2, "replays + one NR probe");
        // Everything scheduled is stage-1.
        let far = SimTime(u64::MAX / 2);
        let orders = s.pop_due(far);
        assert!(orders
            .iter()
            .all(|o| !o.kind.is_stage2() || o.kind == ProbeKind::Nr1));
        assert!(orders.iter().any(|o| o.kind == ProbeKind::R1));
        assert!(orders.iter().any(|o| o.kind == ProbeKind::Nr2));
        // NR1 requires consistency — not after a single payload.
        assert!(orders.iter().all(|o| o.kind != ProbeKind::Nr1));
    }

    #[test]
    fn orders_pop_in_due_order() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let p = hi_entropy(402, &mut rng);
            s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        }
        let mut last = SimTime::ZERO;
        let orders = s.pop_due(SimTime(u64::MAX / 2));
        for o in orders {
            assert!(o.due >= last);
            last = o.due;
        }
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let p = hi_entropy(402, &mut rng);
        s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        let total = s.pending();
        let early = s.pop_due(SimTime::ZERO + Duration::from_secs_f64(0.27));
        assert!(early.is_empty(), "nothing due before the 0.28 s minimum");
        let rest = s.pop_due(SimTime(u64::MAX / 2));
        assert_eq!(rest.len(), total);
    }

    #[test]
    fn stage2_unlock_spawns_r3_r4_wave() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let p = hi_entropy(402, &mut rng);
        s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        let _ = s.pop_due(SimTime(u64::MAX / 2));
        assert!(!s.is_stage2(server()));
        s.unlock_stage2(SimTime::ZERO + Duration::from_secs(100), server(), &mut rng);
        assert!(s.is_stage2(server()));
        let orders = s.pop_due(SimTime(u64::MAX / 2));
        assert!(orders.iter().any(|o| o.kind == ProbeKind::R3));
        assert!(orders.iter().any(|o| o.kind == ProbeKind::R4));
        // Unlocking twice is a no-op.
        let before = s.pending();
        s.unlock_stage2(SimTime::ZERO + Duration::from_secs(200), server(), &mut rng);
        assert_eq!(s.pending(), before);
    }

    #[test]
    fn nr1_requires_consistent_remainders() {
        let cfg = SchedulerConfig::default();
        let mut rng = StdRng::seed_from_u64(5);

        // Uniform lengths (the random-data experiments): no NR1.
        let mut s = Scheduler::new(cfg.clone());
        for _ in 0..200 {
            let len = rng.gen_range(161..=999);
            let p = hi_entropy(len, &mut rng);
            s.on_candidate(server(), p.len());
            s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        }
        let orders = s.pop_due(SimTime(u64::MAX / 2));
        assert!(
            orders.iter().all(|o| o.kind != ProbeKind::Nr1),
            "uniform lengths must not enable NR1"
        );

        // Consistent remainder (genuine Shadowsocks traffic): NR1 fires.
        let mut s = Scheduler::new(cfg);
        for i in 0..200 {
            let len = 306 + 16 * (i % 5); // all remainder 2
            let p = hi_entropy(len, &mut rng);
            s.on_candidate(server(), p.len());
            s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        }
        let orders = s.pop_due(SimTime(u64::MAX / 2));
        assert!(
            orders.iter().any(|o| o.kind == ProbeKind::Nr1),
            "consistent remainders must enable NR1"
        );
    }

    #[test]
    fn nr_probes_respect_min_gap() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let p = hi_entropy(402, &mut rng);
            s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        }
        let orders = s.pop_due(SimTime(u64::MAX / 2));
        let mut nr_times: Vec<SimTime> = orders
            .iter()
            .filter(|o| !o.kind.is_replay())
            .map(|o| o.due)
            .collect();
        nr_times.sort();
        for w in nr_times.windows(2) {
            let gap = w[1].since(w[0]);
            assert!(
                gap >= SchedulerConfig::default().nr_min_gap,
                "gap {gap} too small"
            );
        }
    }

    #[test]
    fn stage2_replay_mix_includes_new_kinds() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let p = hi_entropy(402, &mut rng);
        s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        s.unlock_stage2(SimTime::ZERO, server(), &mut rng);
        let _ = s.pop_due(SimTime(u64::MAX / 2));
        for _ in 0..100 {
            let p = hi_entropy(402, &mut rng);
            s.on_stored_payload(SimTime::ZERO, server(), &p, &mut rng);
        }
        let orders = s.pop_due(SimTime(u64::MAX / 2));
        let kinds: netsim::hash::HashSet<_> = orders.iter().map(|o| o.kind).collect();
        assert!(kinds.contains(&ProbeKind::R3));
        assert!(kinds.contains(&ProbeKind::R4));
        assert!(kinds.contains(&ProbeKind::R1));
    }
}
