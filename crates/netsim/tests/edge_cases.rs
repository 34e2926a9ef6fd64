//! Edge-case tests for the netsim substrate: connection state machine
//! corners, capture filters, sequence numbers, and shaping boundaries.

use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::{ConnId, TcpTuning};
use netsim::host::{HostConfig, WindowShaper};
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator, TcpFlags};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct Script {
    // (event name, conn) log shared with the test body.
    log: Rc<RefCell<Vec<String>>>,
    // What to do on connect: send this payload.
    send_on_connect: Option<Vec<u8>>,
    // Reset instead of answering when data arrives.
    rst_on_data: bool,
    fin_on_connect: bool,
}

impl App for Script {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                self.log.borrow_mut().push("connected".into());
                if let Some(p) = &self.send_on_connect {
                    ctx.send(conn, p.clone());
                }
                if self.fin_on_connect {
                    ctx.fin(conn);
                }
            }
            AppEvent::ConnIncoming { .. } => self.log.borrow_mut().push("incoming".into()),
            AppEvent::Data { conn, data } => {
                self.log.borrow_mut().push(format!("data:{}", data.len()));
                if self.rst_on_data {
                    ctx.rst(conn);
                }
            }
            AppEvent::PeerFin { conn } => {
                self.log.borrow_mut().push("peer_fin".into());
                ctx.fin(conn);
            }
            AppEvent::PeerRst { .. } => self.log.borrow_mut().push("peer_rst".into()),
            AppEvent::ConnectFailed { refused, .. } => {
                self.log.borrow_mut().push(format!("failed:{refused}"))
            }
            AppEvent::Timer { .. } | AppEvent::BulkDelivered { .. } => {}
        }
    }
}

fn world() -> (Simulator, netsim::packet::Ipv4, netsim::packet::Ipv4) {
    let mut sim = Simulator::new(SimConfig::default(), 9);
    let server = sim.add_host(HostConfig::outside("server"));
    let client = sim.add_host(HostConfig::china("client"));
    (sim, server, client)
}

#[test]
fn server_rst_reaches_client_as_peer_rst() {
    let (mut sim, server, client) = world();
    let slog = Rc::new(RefCell::new(vec![]));
    let clog = Rc::new(RefCell::new(vec![]));
    let sapp = sim.add_app(Box::new(Script {
        log: slog,
        rst_on_data: true,
        ..Default::default()
    }));
    sim.listen((server, 1), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: clog.clone(),
        send_on_connect: Some(vec![1, 2, 3]),
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 1),
        TcpTuning::default(),
    );
    sim.run();
    assert_eq!(clog.borrow().clone(), vec!["connected", "peer_rst"]);
}

#[test]
fn simultaneous_fin_exchange_closes_cleanly() {
    // Client FINs immediately after connect; server FINs in response to
    // the PeerFin. No dangling connections, no panics.
    let (mut sim, server, client) = world();
    let slog = Rc::new(RefCell::new(vec![]));
    let sapp = sim.add_app(Box::new(Script {
        log: slog.clone(),
        ..Default::default()
    }));
    sim.listen((server, 2), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: Rc::new(RefCell::new(vec![])),
        fin_on_connect: true,
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 2),
        TcpTuning::default(),
    );
    sim.run();
    assert_eq!(sim.live_connections(), 0);
}

#[test]
fn data_after_peer_fin_is_ignored_gracefully() {
    // The server app sends on a connection whose client already closed:
    // the write is silently dropped (connection is half/fully closed).
    struct LateWriter {
        conn: Rc<RefCell<Option<ConnId>>>,
    }
    impl App for LateWriter {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            match ev {
                AppEvent::ConnIncoming { conn, .. } => {
                    *self.conn.borrow_mut() = Some(conn);
                }
                AppEvent::PeerFin { conn } => {
                    // Answer the FIN, then (wrongly) try to keep writing.
                    ctx.fin(conn);
                    ctx.send(conn, vec![9; 10]);
                }
                _ => {}
            }
        }
    }
    let (mut sim, server, client) = world();
    let conn_slot = Rc::new(RefCell::new(None));
    let sapp = sim.add_app(Box::new(LateWriter { conn: conn_slot }));
    sim.listen((server, 3), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: Rc::new(RefCell::new(vec![])),
        send_on_connect: Some(vec![1]),
        fin_on_connect: true,
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 3),
        TcpTuning::default(),
    );
    sim.run(); // must terminate without panic
}

#[test]
fn sequence_numbers_advance_with_payload() {
    let (mut sim, server, client) = world();
    let cap = sim.add_capture(Capture::all());
    let sapp = sim.add_app(Box::new(Script::default()));
    sim.listen((server, 4), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: Rc::new(RefCell::new(vec![])),
        send_on_connect: Some(vec![7; 3000]), // spans 3 MSS segments
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 4),
        TcpTuning::default(),
    );
    sim.run();
    let data: Vec<_> = sim
        .capture(cap)
        .data_packets()
        .filter(|p| p.src.0 == client)
        .collect();
    assert_eq!(data.len(), 3);
    assert_eq!(
        data[1].seq,
        data[0].seq.wrapping_add(data[0].payload.len() as u32)
    );
    assert_eq!(
        data[2].seq,
        data[1].seq.wrapping_add(data[1].payload.len() as u32)
    );
}

#[test]
fn window_shaping_relaxes_after_threshold() {
    let (mut sim, _, client) = world();
    let mut cfg = HostConfig::outside("shaped");
    cfg.window_shaper = Some(WindowShaper {
        window_range: (40, 40),
        restore_after_bytes: 80,
    });
    let server = sim.add_host(cfg);
    let cap = sim.add_capture(Capture::all());
    let sapp = sim.add_app(Box::new(Script::default()));
    sim.listen((server, 5), sapp);

    struct TwoWrites;
    impl App for TwoWrites {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            match ev {
                AppEvent::Connected { conn } => {
                    ctx.send(conn, vec![1; 100]); // shaped: 40+40+20
                    ctx.set_timer(Duration::from_secs(2), conn.0);
                }
                AppEvent::Timer { token } => {
                    // After 100 shaped bytes arrived (>80), the cap lifts.
                    ctx.send(ConnId(token), vec![2; 500]);
                }
                _ => {}
            }
        }
    }
    let capp = sim.add_app(Box::new(TwoWrites));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 5),
        TcpTuning::default(),
    );
    sim.run();
    let sizes: Vec<usize> = sim
        .capture(cap)
        .data_packets()
        .filter(|p| p.src.0 == client)
        .map(|p| p.payload.len())
        .collect();
    assert_eq!(
        sizes,
        vec![40, 40, 20, 500],
        "shaping must relax: {sizes:?}"
    );
}

#[test]
fn listener_can_be_removed() {
    let (mut sim, server, client) = world();
    let sapp = sim.add_app(Box::new(Script::default()));
    sim.listen((server, 6), sapp);
    sim.unlisten((server, 6));
    let clog = Rc::new(RefCell::new(vec![]));
    let capp = sim.add_app(Box::new(Script {
        log: clog.clone(),
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 6),
        TcpTuning::default(),
    );
    sim.run();
    assert_eq!(clog.borrow().clone(), vec!["failed:true"]);
}

#[test]
fn capture_clear_keeps_filter() {
    let (mut sim, server, client) = world();
    let cap = sim.add_capture(Capture::with_filter(move |p| {
        p.src.0 == server || p.dst.0 == server
    }));
    let sapp = sim.add_app(Box::new(Script::default()));
    sim.listen((server, 7), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: Rc::new(RefCell::new(vec![])),
        send_on_connect: Some(vec![1]),
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 7),
        TcpTuning::default(),
    );
    sim.run();
    assert!(!sim.capture(cap).is_empty());
    sim.capture_mut(cap).clear();
    assert!(sim.capture(cap).is_empty());
    // Still filtered to the server after clear.
    let t = sim.now();
    sim.connect_at(
        t + Duration::from_secs(1),
        capp,
        client,
        (server, 7),
        TcpTuning::default(),
    );
    sim.run();
    assert!(sim
        .capture(cap)
        .packets()
        .iter()
        .all(|p| p.src.0 == server || p.dst.0 == server));
}

#[test]
fn syn_packets_have_no_payload_and_correct_flags() {
    let (mut sim, server, client) = world();
    let cap = sim.add_capture(Capture::all());
    let sapp = sim.add_app(Box::new(Script::default()));
    sim.listen((server, 8), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: Rc::new(RefCell::new(vec![])),
        send_on_connect: Some(vec![1; 10]),
        ..Default::default()
    }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 8),
        TcpTuning::default(),
    );
    sim.run();
    for p in sim.capture(cap).packets() {
        if p.flags.syn {
            assert!(p.payload.is_empty(), "SYN with payload");
        }
        if p.flags == TcpFlags::RST {
            assert!(p.tsval.is_none(), "RST with TSval");
        }
        assert!(!(p.flags.syn && p.flags.fin), "SYN+FIN impossible");
        assert!(!(p.flags.rst && p.flags.fin), "RST+FIN impossible");
    }
}

#[test]
fn many_sequential_connections_reuse_resources() {
    let (mut sim, server, client) = world();
    let sapp = sim.add_app(Box::new(Script::default()));
    sim.listen((server, 9), sapp);
    let capp = sim.add_app(Box::new(Script {
        log: Rc::new(RefCell::new(vec![])),
        send_on_connect: Some(vec![1; 50]),
        fin_on_connect: true,
        ..Default::default()
    }));
    for i in 0..2_000u64 {
        sim.connect_at(
            SimTime::ZERO + Duration::from_millis(i * 5),
            capp,
            client,
            (server, 9),
            TcpTuning::default(),
        );
    }
    sim.run();
    assert_eq!(sim.stats.connections, 2_000);
    assert_eq!(sim.live_connections(), 0);
}
