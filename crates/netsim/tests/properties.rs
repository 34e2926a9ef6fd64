//! Property-based tests for the simulator substrate: determinism under
//! arbitrary schedules, payload integrity through segmentation, and
//! header-field policies.

use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::{ConnId, TcpTuning};
use netsim::host::{HostConfig, PortPolicy};
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Server that accumulates everything it receives, per connection.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Payloads of any size arrive intact and in order, regardless of
    /// MSS segmentation.
    #[test]
    fn payload_integrity_through_segmentation(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..6000),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        let mut sim = Simulator::new(SimConfig::default(), seed);
        let server = sim.add_host(HostConfig::outside("s"));
        let client = sim.add_host(HostConfig::china("c"));
        let received = Rc::new(RefCell::new(HashMap::new()));
        let sapp = sim.add_app(Box::new(Collector {
            received: received.clone(),
        }));
        sim.listen((server, 1), sapp);
        let capp = sim.add_app(Box::new(Sender {
            payloads: payloads.clone(),
            next: 0,
        }));
        let mut conns = Vec::new();
        for i in 0..payloads.len() {
            conns.push(sim.connect_at(
                SimTime::ZERO + Duration::from_secs(i as u64),
                capp,
                client,
                (server, 1),
                TcpTuning::default(),
            ));
        }
        sim.run();
        let got = received.borrow();
        for (i, conn) in conns.iter().enumerate() {
            prop_assert_eq!(
                got.get(conn).map(|v| v.as_slice()),
                Some(payloads[i].as_slice()),
                "conn {}", i
            );
        }
    }

    /// Same seed ⇒ byte-identical capture; the schedule is part of the
    /// determinism contract.
    #[test]
    fn determinism_under_arbitrary_schedules(
        offsets in proptest::collection::vec(0u64..10_000, 1..20),
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut sim = Simulator::new(SimConfig::default(), seed);
            let server = sim.add_host(HostConfig::outside("s"));
            let client = sim.add_host(HostConfig::china("c"));
            let cap = sim.add_capture(Capture::all());
            let sapp = sim.add_app(Box::new(Collector::default()));
            sim.listen((server, 1), sapp);
            let capp = sim.add_app(Box::new(Sender {
                payloads: vec![vec![9u8; 100]],
                next: 0,
            }));
            for &off in &offsets {
                sim.connect_at(
                    SimTime::ZERO + Duration::from_millis(off),
                    capp,
                    client,
                    (server, 1),
                    TcpTuning::default(),
                );
            }
            sim.run();
            sim.capture(cap)
                .packets()
                .iter()
                .map(|p| (p.sent_at, p.src, p.dst, p.seq, p.ack, p.ip_id, p.tsval))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Port policies always respect their documented ranges.
    #[test]
    fn port_policies_in_range(seed in any::<u64>(), frac in 0.0f64..=1.0) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortPolicy::LinuxEphemeral.draw(&mut rng);
        prop_assert!((32768..=60999).contains(&p));
        let p = PortPolicy::UniformHigh.draw(&mut rng);
        prop_assert!(p >= 1024);
        let p = PortPolicy::Mixed { linux_frac: frac }.draw(&mut rng);
        prop_assert!(p >= 1024);
    }

    /// TsClock never panics and wraps correctly for any offset/elapsed.
    #[test]
    fn ts_clock_total(offset in any::<u32>(), rate in prop_oneof![Just(250u32), Just(1000u32)], secs in 0u64..10_000_000) {
        let clock = netsim::host::TsClock { offset, rate_hz: rate };
        let t = SimTime::ZERO + Duration::from_secs(secs);
        let v = clock.tsval(t);
        // Consistency: one second later the counter advanced by ~rate
        // (mod 2^32).
        let v2 = clock.tsval(t + Duration::from_secs(1));
        let delta = v2.wrapping_sub(v);
        prop_assert!((rate - 1..=rate + 1).contains(&delta), "delta {delta}");
    }
}
