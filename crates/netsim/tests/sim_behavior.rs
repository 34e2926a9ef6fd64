//! Behavioural tests of the netsim substrate: the TCP-ish flag
//! sequences, header fingerprints, window shaping and tap semantics the
//! GFW model depends on.

use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::TcpTuning;
use netsim::host::{HostConfig, TsClock, WindowShaper};
use netsim::tap::{Tap, TapCtx, Verdict};
use netsim::time::{Duration, SimTime};
use netsim::{Packet, SimConfig, Simulator, TcpFlags};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Server that echoes data once then closes.
struct EchoOnce;
impl App for EchoOnce {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            ctx.send(conn, data.bytes().into_owned());
            ctx.fin(conn);
        }
    }
}

/// Client that sends a fixed payload and records what happens.
struct RecordingClient {
    payload: Vec<u8>,
    log: Rc<RefCell<Vec<String>>>,
}
impl App for RecordingClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                self.log.borrow_mut().push("connected".into());
                ctx.send(conn, self.payload.clone());
            }
            AppEvent::ConnectFailed { refused, .. } => {
                self.log
                    .borrow_mut()
                    .push(format!("connect_failed refused={refused}"));
            }
            AppEvent::Data { data, .. } => {
                self.log.borrow_mut().push(format!("data {}", data.len()));
            }
            AppEvent::PeerFin { conn } => {
                self.log.borrow_mut().push("peer_fin".into());
                ctx.fin(conn);
            }
            AppEvent::PeerRst { .. } => {
                self.log.borrow_mut().push("peer_rst".into());
            }
            _ => {}
        }
    }
}

fn sim() -> Simulator {
    Simulator::new(SimConfig::default(), 1234)
}

#[test]
fn full_connection_packet_sequence() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let cap = s.add_capture(Capture::all());
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![7u8; 100],
        log: log.clone(),
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run();

    let events = log.borrow().clone();
    assert_eq!(
        events,
        vec!["connected", "data 100", "peer_fin"],
        "client-side event order"
    );

    // On the wire: SYN, SYN-ACK, ACK, PSH-ACK (client), PSH-ACK (server),
    // FIN-ACK (server), FIN-ACK (client).
    let flags: Vec<TcpFlags> = s.capture(cap).packets().iter().map(|p| p.flags).collect();
    assert_eq!(
        flags,
        vec![
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::PSH_ACK,
            TcpFlags::PSH_ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::FIN_ACK,
        ]
    );
    // Server closed first (FIN from server precedes client's).
    let fins: Vec<_> = s
        .capture(cap)
        .packets()
        .iter()
        .filter(|p| p.flags.fin)
        .collect();
    assert_eq!(fins[0].src.0, server);
}

#[test]
fn connect_to_closed_port_is_refused() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![],
        log: log.clone(),
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 9999),
        TcpTuning::default(),
    );
    s.run();
    assert_eq!(log.borrow().clone(), vec!["connect_failed refused=true"]);
}

#[test]
fn connect_to_blackholed_internet_times_out() {
    let mut cfg = SimConfig::default();
    cfg.internet.p_refused = 0.0;
    let mut s = Simulator::new(cfg, 5);
    let client = s.add_host(HostConfig::outside("client"));
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![],
        log: log.clone(),
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (netsim::packet::Ipv4::new(203, 0, 113, 77), 443),
        TcpTuning::default(),
    );
    s.run();
    assert_eq!(log.borrow().clone(), vec!["connect_failed refused=false"]);
    // Timed out at the host's syn_timeout.
    assert!(s.now() >= SimTime::ZERO + Duration::from_secs(20));
}

#[test]
fn window_shaping_splits_first_flight() {
    let mut s = sim();
    let mut server_cfg = HostConfig::outside("server");
    server_cfg.window_shaper = Some(WindowShaper {
        window_range: (32, 32),
        restore_after_bytes: 500,
    });
    let server = s.add_host(server_cfg);
    let client = s.add_host(HostConfig::china("client"));
    let cap = s.add_capture(Capture::all());
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1u8; 200],
        log,
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run();

    // The client's 200-byte write must arrive as ceil(200/32) = 7
    // segments of at most 32 bytes — brdgrd's effect (§7.1).
    let client_data: Vec<usize> = s
        .capture(cap)
        .packets()
        .iter()
        .filter(|p| p.src.0 == client && p.has_payload())
        .map(|p| p.payload.len())
        .collect();
    assert_eq!(client_data.len(), 7);
    assert!(client_data.iter().all(|&l| l <= 32));
    assert_eq!(client_data.iter().sum::<usize>(), 200);
}

#[test]
fn unshaped_first_flight_is_one_segment() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let cap = s.add_capture(Capture::all());
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1u8; 600],
        log,
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run();
    let client_data: Vec<usize> = s
        .capture(cap)
        .packets()
        .iter()
        .filter(|p| p.src.0 == client && p.has_payload())
        .map(|p| p.payload.len())
        .collect();
    assert_eq!(client_data, vec![600]);
}

/// Tap that drops all server→client packets for a given server — the
/// GFW's unidirectional blocking (§6).
struct UniDropTap {
    server: netsim::packet::Ipv4,
}
impl Tap for UniDropTap {
    fn on_packet(&mut self, pkt: &Packet, _ctx: &mut TapCtx) -> Verdict {
        if pkt.src.0 == self.server {
            Verdict::Drop
        } else {
            Verdict::Pass
        }
    }
}

#[test]
fn unidirectional_drop_blocks_handshake() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    s.add_tap(Box::new(UniDropTap { server }));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1],
        log: log.clone(),
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run();
    // SYN-ACK dropped at the border → client times out.
    assert_eq!(log.borrow().clone(), vec!["connect_failed refused=false"]);
    assert!(s.stats.packets_dropped >= 1);
}

/// Tap that counts the packets it is offered and never drops.
struct SeenTap(Rc<Cell<u64>>);
impl Tap for SeenTap {
    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut TapCtx) -> Verdict {
        self.0.set(self.0.get() + 1);
        Verdict::Pass
    }
}

#[test]
fn taps_do_not_see_intra_region_traffic() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::outside("client"));
    let seen = Rc::new(Cell::new(0));
    s.add_tap(Box::new(SeenTap(seen.clone())));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 80), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1],
        log,
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 80),
        TcpTuning::default(),
    );
    s.run();
    assert_eq!(seen.get(), 0, "outside↔outside avoids the GFW");
}

#[test]
fn tuning_overrides_stamp_client_packets() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("prober"));
    let cap = s.add_capture(Capture::all());
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1u8; 10],
        log,
    }));
    let tuning = TcpTuning {
        src_port: Some(33333),
        ts_clock: Some(TsClock {
            offset: 1000,
            rate_hz: 250,
        }),
        ttl: Some(47),
        random_ip_id: true,
    };
    s.connect_at(SimTime::ZERO, app, client, (server, 8388), tuning);
    s.run();
    let syn = s.capture(cap).syns().next().unwrap().clone();
    assert_eq!(syn.src.1, 33333);
    assert_eq!(syn.ttl, 47);
    assert_eq!(syn.tsval, Some(1000)); // 250 Hz clock at t=0
                                       // RSTs carry no TSval; data packets do.
    for p in s.capture(cap).packets() {
        if p.flags.rst {
            assert!(p.tsval.is_none());
        } else {
            assert!(p.tsval.is_some());
        }
    }
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed| {
        let mut s = Simulator::new(SimConfig::default(), seed);
        let server = s.add_host(HostConfig::outside("server"));
        let client = s.add_host(HostConfig::china("client"));
        let cap = s.add_capture(Capture::all());
        let echo = s.add_app(Box::new(EchoOnce));
        s.listen((server, 8388), echo);
        let log = Rc::new(RefCell::new(Vec::new()));
        let app = s.add_app(Box::new(RecordingClient {
            payload: vec![9u8; 321],
            log,
        }));
        for i in 0..10 {
            s.connect_at(
                SimTime::ZERO + Duration::from_secs(i),
                app,
                client,
                (server, 8388),
                TcpTuning::default(),
            );
        }
        s.run();
        s.capture(cap)
            .packets()
            .iter()
            .map(|p| (p.sent_at, p.src, p.dst, p.ip_id, p.seq, p.payload.len()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42), "same seed, identical traces");
    assert_ne!(run(42), run(43), "different seed, different header fields");
}

#[test]
fn run_until_stops_at_boundary() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1],
        log: log.clone(),
    }));
    s.connect_at(
        SimTime::ZERO + Duration::from_secs(100),
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run_until(SimTime::ZERO + Duration::from_secs(50));
    assert!(log.borrow().is_empty(), "nothing happened yet");
    assert_eq!(s.now(), SimTime::ZERO + Duration::from_secs(50));
    s.run();
    assert!(!log.borrow().is_empty());
}

#[test]
fn timers_fire_in_order() {
    struct TimerApp {
        fired: Rc<RefCell<Vec<u64>>>,
    }
    impl App for TimerApp {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            match ev {
                AppEvent::Connected { .. } => {
                    ctx.set_timer(Duration::from_secs(3), 3);
                    ctx.set_timer(Duration::from_secs(1), 1);
                    ctx.set_timer(Duration::from_secs(2), 2);
                    // Same-time ties resolve in scheduling order.
                    ctx.set_timer(Duration::from_secs(1), 10);
                }
                AppEvent::Timer { token } => self.fired.borrow_mut().push(token),
                _ => {}
            }
        }
    }
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let fired = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(TimerApp {
        fired: fired.clone(),
    }));
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run();
    assert_eq!(fired.borrow().clone(), vec![1, 10, 2, 3]);
}

#[test]
fn connections_are_garbage_collected() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1u8; 5],
        log,
    }));
    for i in 0..50 {
        s.connect_at(
            SimTime::ZERO + Duration::from_millis(i * 10),
            app,
            client,
            (server, 8388),
            TcpTuning::default(),
        );
    }
    s.run();
    assert_eq!(s.stats.connections, 50);
    assert_eq!(s.live_connections(), 0, "closed conns are reclaimed");
}

#[test]
fn completed_handshakes_leave_no_syn_deadline_queued() {
    let mut s = sim();
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::china("client"));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(RecordingClient {
        payload: vec![1u8; 5],
        log,
    }));
    for i in 0..1_000 {
        s.connect_at(
            SimTime::ZERO + Duration::from_millis(i * 4),
            app,
            client,
            (server, 8388),
            TcpTuning::default(),
        );
    }
    s.run();
    assert_eq!(s.live_connections(), 0);
    // Every connection is open for its 20 s SYN deadline; queued one
    // per connection, the deadlines alone would hold 1,000 entries at
    // once. Only the earliest pending deadline holds one.
    assert!(
        s.stats.peak_queue_depth < 100,
        "peak queue depth {}",
        s.stats.peak_queue_depth
    );
}

#[test]
fn syn_timeout_ties_with_timers_in_scheduling_order() {
    /// Token of the timer that opens the black-holed connect.
    const OPEN: u64 = 0;
    struct TieApp {
        client: netsim::packet::Ipv4,
        blackhole: netsim::SocketAddr,
        log: Rc<RefCell<Vec<(String, SimTime)>>>,
    }
    impl App for TieApp {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            let entry = match ev {
                AppEvent::Connected { conn } => {
                    ctx.fin(conn);
                    ctx.set_timer(Duration::from_secs(1), OPEN);
                    return;
                }
                AppEvent::Timer { token: OPEN } => {
                    // Three things due at one nanosecond, now + 20 s: a
                    // timer, the connect's SYN deadline, a timer.
                    ctx.set_timer(Duration::from_secs(20), 1);
                    ctx.connect(self.client, self.blackhole, TcpTuning::default());
                    ctx.set_timer(Duration::from_secs(20), 2);
                    "open".to_string()
                }
                AppEvent::Timer { token } => format!("timer {token}"),
                AppEvent::ConnectFailed { refused, .. } => format!("failed refused={refused}"),
                _ => return,
            };
            self.log.borrow_mut().push((entry, ctx.now));
        }
    }
    let mut cfg = SimConfig::default();
    cfg.internet.p_refused = 0.0;
    let mut s = Simulator::new(cfg, 9);
    let server = s.add_host(HostConfig::outside("server"));
    let client = s.add_host(HostConfig::outside("client"));
    let echo = s.add_app(Box::new(EchoOnce));
    s.listen((server, 8388), echo);
    let log = Rc::new(RefCell::new(Vec::new()));
    let app = s.add_app(Box::new(TieApp {
        client,
        blackhole: (netsim::packet::Ipv4::new(203, 0, 113, 9), 443),
        log: log.clone(),
    }));
    // This handshake completes, so its SYN deadline at 20 s fires for
    // nothing; only then is the black-holed connect's deadline queued,
    // long after both timers around it.
    s.connect_at(
        SimTime::ZERO,
        app,
        client,
        (server, 8388),
        TcpTuning::default(),
    );
    s.run();
    let log = log.borrow();
    let opened = log[0].1;
    let due = opened + Duration::from_secs(20);
    let got: Vec<(&str, SimTime)> = log.iter().map(|(e, t)| (e.as_str(), *t)).collect();
    assert_eq!(
        got,
        vec![
            ("open", opened),
            ("timer 1", due),
            ("failed refused=false", due),
            ("timer 2", due),
        ]
    );
}
