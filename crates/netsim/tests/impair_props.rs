//! Property tests for the link-impairment layer.
//!
//! The contract under test, in order of importance:
//!
//! 1. a zero-rate [`ImpairmentSpec`] is a strict no-op — capture logs
//!    are byte-identical to `SimConfig::default()` for any schedule,
//!    because the zero-rate path draws nothing from the RNG and
//!    allocates no reassembly state;
//! 2. under real loss/duplication/reordering/jitter, application
//!    payloads still arrive intact and in order (retransmission plus
//!    the per-direction sequencer);
//! 3. impaired runs are deterministic: same seed, same spec ⇒ the same
//!    capture, retransmissions included.

use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::{ConnId, TcpTuning};
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{ImpairmentSpec, LinkImpairment, SimConfig, Simulator};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Server accumulating everything it receives, per connection.
#[derive(Default)]
struct Collector {
    received: Rc<RefCell<HashMap<ConnId, Vec<u8>>>>,
}

impl App for Collector {
    fn on_event(&mut self, ev: AppEvent, _ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            self.received
                .borrow_mut()
                .entry(conn)
                .or_default()
                .extend_from_slice(&data.bytes());
        }
    }
}

struct Sender {
    payloads: Vec<Vec<u8>>,
    next: usize,
}

impl App for Sender {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Connected { conn } = ev {
            let p = self.payloads[self.next % self.payloads.len()].clone();
            self.next += 1;
            ctx.send(conn, p);
            ctx.fin(conn);
        }
    }
}

/// Run a cross-border sender/collector world and return the full
/// capture rendered through `Debug` (covers every packet field,
/// `retx` included) plus the per-connection received bytes.
fn run_world(
    config: SimConfig,
    seed: u64,
    offsets: &[u64],
    payloads: &[Vec<u8>],
) -> (Vec<String>, HashMap<ConnId, Vec<u8>>, Vec<ConnId>) {
    let mut sim = Simulator::new(config, seed);
    let server = sim.add_host(HostConfig::outside("s"));
    let client = sim.add_host(HostConfig::china("c"));
    let cap = sim.add_capture(Capture::all());
    let received = Rc::new(RefCell::new(HashMap::new()));
    let sapp = sim.add_app(Box::new(Collector {
        received: received.clone(),
    }));
    sim.listen((server, 1), sapp);
    let capp = sim.add_app(Box::new(Sender {
        payloads: payloads.to_vec(),
        next: 0,
    }));
    let mut conns = Vec::new();
    for &off in offsets {
        conns.push(sim.connect_at(
            SimTime::ZERO + Duration::from_millis(off),
            capp,
            client,
            (server, 1),
            TcpTuning::default(),
        ));
    }
    sim.run();
    let log = sim
        .capture(cap)
        .packets()
        .iter()
        .map(|p| format!("{p:?}"))
        .collect();
    let got = received.borrow().clone();
    (log, got, conns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero-rate impairment never perturbs a run: the capture is
    /// byte-identical to the default config even when the spec is
    /// built through a non-default constructor and carries non-default
    /// inert fields (`reorder_extra`, RTO policy).
    #[test]
    fn zero_rate_impairment_is_byte_identical(
        offsets in proptest::collection::vec(0u64..10_000, 1..12),
        extra_ms in 0u64..5_000,
        retries in 0u32..20,
        seed in any::<u64>(),
    ) {
        let payloads = vec![vec![0xA5u8; 700]];
        let baseline = run_world(SimConfig::default(), seed, &offsets, &payloads);
        let zero = ImpairmentSpec {
            cn_to_intl: LinkImpairment {
                reorder_extra: Duration::from_millis(extra_ms),
                ..LinkImpairment::default()
            },
            intl_to_cn: LinkImpairment::lossy(0.0),
            rto_max_retries: retries,
            ..ImpairmentSpec::default()
        };
        prop_assert!(zero.is_noop());
        let impaired = run_world(
            SimConfig { impairment: zero, ..SimConfig::default() },
            seed,
            &offsets,
            &payloads,
        );
        prop_assert_eq!(&baseline.0, &impaired.0, "capture diverged");
        prop_assert_eq!(&baseline.1, &impaired.1, "received bytes diverged");
    }

    /// Payloads survive loss, duplication, reordering and jitter: the
    /// retransmission machine recovers drops and the sequencer
    /// de-duplicates and re-orders, so every byte arrives exactly once
    /// and in order. Loss is kept well inside the 5-retry budget so
    /// segment abandonment has negligible probability (p⁶ per segment).
    #[test]
    fn payload_integrity_under_impairment(
        loss in 0.0f64..0.15,
        duplicate in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        jitter_us in 0u64..20_000,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..4000),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let link = LinkImpairment {
            loss,
            duplicate,
            reorder,
            reorder_extra: Duration::from_millis(30),
            jitter: Duration::from_micros(jitter_us),
        };
        let config = SimConfig {
            impairment: ImpairmentSpec::symmetric(link),
            ..SimConfig::default()
        };
        let offsets: Vec<u64> = (0..payloads.len() as u64).map(|i| i * 2_000).collect();
        let (_, got, conns) = run_world(config, seed, &offsets, &payloads);
        for (i, conn) in conns.iter().enumerate() {
            prop_assert_eq!(
                got.get(conn).map(|v| v.as_slice()),
                Some(payloads[i].as_slice()),
                "conn {}", i
            );
        }
    }

    /// Same seed, same spec ⇒ byte-identical capture, retransmissions
    /// and duplicated deliveries included.
    #[test]
    fn impaired_runs_are_deterministic(
        loss in 0.0f64..0.4,
        duplicate in 0.0f64..0.4,
        reorder in 0.0f64..0.4,
        offsets in proptest::collection::vec(0u64..5_000, 1..8),
        seed in any::<u64>(),
    ) {
        let link = LinkImpairment {
            loss,
            duplicate,
            reorder,
            reorder_extra: Duration::from_millis(50),
            jitter: Duration::from_millis(3),
        };
        let config = || SimConfig {
            impairment: ImpairmentSpec::symmetric(link),
            ..SimConfig::default()
        };
        let payloads = vec![vec![7u8; 900]];
        let a = run_world(config(), seed, &offsets, &payloads);
        let b = run_world(config(), seed, &offsets, &payloads);
        prop_assert_eq!(&a.0, &b.0, "capture diverged between identical runs");
        prop_assert_eq!(&a.1, &b.1, "received bytes diverged");
    }
}
