//! Tests of the netsim adapters: the full Shadowsocks proxy app
//! (hostname resolution, relay in both directions, idle timeout, DNS
//! failure path) and the §4.1 sink/responding servers.

use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shadowsocks::apps::{RespondingServerApp, SinkServerApp, SsServerApp};
use shadowsocks::{ClientSession, Profile, ServerConfig, TargetAddr};
use sscrypto::method::Method;
use std::cell::RefCell;
use std::rc::Rc;

/// A log an app appends to and the test reads back.
type Log<T> = Rc<RefCell<Vec<T>>>;

struct ProxyClient {
    config: ServerConfig,
    target: TargetAddr,
    request: Vec<u8>,
    received: Log<u8>,
    events: Log<String>,
    session: Option<ClientSession>,
    rng: StdRng,
}

impl App for ProxyClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let mut s = ClientSession::new(&self.config, self.target.clone(), &mut self.rng);
                let wire = s.send(&self.request);
                self.session = Some(s);
                ctx.send(conn, wire);
            }
            AppEvent::Data { data, .. } => {
                if let Some(s) = &mut self.session {
                    self.received.borrow_mut().extend(s.recv(&data.bytes()));
                }
            }
            AppEvent::PeerFin { conn } => {
                self.events.borrow_mut().push("peer_fin".into());
                ctx.fin(conn);
            }
            AppEvent::PeerRst { .. } => self.events.borrow_mut().push("peer_rst".into()),
            AppEvent::ConnectFailed { .. } => {
                self.events.borrow_mut().push("connect_failed".into())
            }
            _ => {}
        }
    }
}

struct Httpish;
impl App for Httpish {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            let mut resp = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
            resp.extend_from_slice(&data.bytes());
            ctx.send(conn, resp);
        }
    }
}

struct World {
    sim: Simulator,
    server_ip: netsim::packet::Ipv4,
    web_ip: netsim::packet::Ipv4,
    client_ip: netsim::packet::Ipv4,
    server_app: netsim::app::AppId,
}

fn build(config: &ServerConfig) -> World {
    let mut sim = Simulator::new(SimConfig::default(), 44);
    let server_ip = sim.add_host(HostConfig::outside("ss"));
    let web_ip = sim.add_host(HostConfig::outside("web"));
    let client_ip = sim.add_host(HostConfig::china("client"));
    let web = sim.add_app(Box::new(Httpish));
    sim.listen((web_ip, 80), web);
    let server_app = sim.add_app(Box::new(SsServerApp::new(config.clone(), server_ip, 7)));
    sim.listen((server_ip, 8388), server_app);
    World {
        sim,
        server_ip,
        web_ip,
        client_ip,
        server_app,
    }
}

fn proxy_client(
    world: &mut World,
    config: &ServerConfig,
    target: TargetAddr,
) -> (Log<u8>, Log<String>) {
    let received = Rc::new(RefCell::new(Vec::new()));
    let events = Rc::new(RefCell::new(Vec::new()));
    let app = world.sim.add_app(Box::new(ProxyClient {
        config: config.clone(),
        target,
        request: b"GET /a HTTP/1.1\r\n\r\n".to_vec(),
        received: received.clone(),
        events: events.clone(),
        session: None,
        rng: StdRng::seed_from_u64(5),
    }));
    world.sim.connect_at(
        SimTime::ZERO,
        app,
        world.client_ip,
        (world.server_ip, 8388),
        TcpTuning::default(),
    );
    (received, events)
}

#[test]
fn proxies_by_ip_target_end_to_end() {
    let config = ServerConfig::new(Method::Aes256Gcm, "apps-pw", Profile::LIBEV_NEW);
    let mut world = build(&config);
    let target = TargetAddr::Ipv4(world.web_ip.0, 80);
    let (received, _) = proxy_client(&mut world, &config, target);
    world.sim.run_until(SimTime::ZERO + Duration::from_secs(5));
    assert!(
        received.borrow().starts_with(b"HTTP/1.1 200 OK"),
        "got: {:?}",
        String::from_utf8_lossy(&received.borrow())
    );
    assert!(received.borrow().ends_with(b"GET /a HTTP/1.1\r\n\r\n"));
}

#[test]
fn proxies_by_hostname_with_resolver() {
    let config = ServerConfig::new(Method::Aes256Cfb, "apps-pw", Profile::LIBEV_OLD);
    let mut world = build(&config);
    // Register the hostname on the server app's resolver.
    {
        // Re-add the server app with a resolver entry (apps are boxed
        // into the sim; configure before traffic instead).
        let mut app = SsServerApp::new(config.clone(), world.server_ip, 8);
        app.resolver.insert(b"intra.example".to_vec(), world.web_ip);
        let id = world.sim.add_app(Box::new(app));
        world.sim.listen((world.server_ip, 8389), id);
    }
    let received = Rc::new(RefCell::new(Vec::new()));
    let events = Rc::new(RefCell::new(Vec::new()));
    let capp = world.sim.add_app(Box::new(ProxyClient {
        config: config.clone(),
        target: TargetAddr::Hostname(b"intra.example".to_vec(), 80),
        request: b"GET /h HTTP/1.1\r\n\r\n".to_vec(),
        received: received.clone(),
        events,
        session: None,
        rng: StdRng::seed_from_u64(6),
    }));
    world.sim.connect_at(
        SimTime::ZERO,
        capp,
        world.client_ip,
        (world.server_ip, 8389),
        TcpTuning::default(),
    );
    world.sim.run_until(SimTime::ZERO + Duration::from_secs(5));
    assert!(received.borrow().starts_with(b"HTTP/1.1 200 OK"));
}

#[test]
fn unresolvable_hostname_closes_with_fin() {
    let config = ServerConfig::new(Method::Aes256Gcm, "apps-pw", Profile::LIBEV_NEW);
    let mut world = build(&config);
    let target = TargetAddr::Hostname(b"no.such.host".to_vec(), 80);
    let (received, events) = proxy_client(&mut world, &config, target);
    world.sim.run_until(SimTime::ZERO + Duration::from_secs(5));
    assert!(received.borrow().is_empty());
    assert_eq!(events.borrow().clone(), vec!["peer_fin"]);
}

#[test]
fn idle_connection_closed_by_server_timeout() {
    let mut config = ServerConfig::new(Method::Aes256Gcm, "apps-pw", Profile::LIBEV_NEW);
    config.timeout_secs = 30;
    let mut world = build(&config);
    // A client that connects, completes the handshake, and never sends.
    struct Mute {
        events: Log<String>,
    }
    impl App for Mute {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            match ev {
                AppEvent::Connected { conn } => {
                    // Send one byte so the server learns of the conn but
                    // never completes a header.
                    ctx.send(conn, vec![0x42]);
                }
                AppEvent::PeerFin { conn } => {
                    self.events
                        .borrow_mut()
                        .push(format!("fin@{}", ctx.now.as_secs_f64().round()));
                    ctx.fin(conn);
                }
                _ => {}
            }
        }
    }
    let events = Rc::new(RefCell::new(Vec::new()));
    let capp = world.sim.add_app(Box::new(Mute {
        events: events.clone(),
    }));
    world.sim.connect_at(
        SimTime::ZERO,
        capp,
        world.client_ip,
        (world.server_ip, 8388),
        TcpTuning::default(),
    );
    world.sim.run();
    let evs = events.borrow().clone();
    assert_eq!(evs.len(), 1, "{evs:?}");
    assert!(evs[0].starts_with("fin@30"), "{evs:?}");
}

#[test]
fn sink_server_closes_after_hold() {
    let mut sim = Simulator::new(SimConfig::default(), 50);
    let server = sim.add_host(HostConfig::outside("sink"));
    let client = sim.add_host(HostConfig::china("client"));
    let cap = sim.add_capture(Capture::all());
    let sink = sim.add_app(Box::new(SinkServerApp {
        hold: Duration::from_secs(30),
    }));
    sim.listen((server, 1), sink);
    struct Push;
    impl App for Push {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            match ev {
                AppEvent::Connected { conn } => ctx.send(conn, vec![1; 100]),
                AppEvent::PeerFin { conn } => ctx.fin(conn),
                _ => {}
            }
        }
    }
    let capp = sim.add_app(Box::new(Push));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 1),
        TcpTuning::default(),
    );
    sim.run();
    // Sink never sends data; it FINs at ~30 s.
    let server_data = sim
        .capture(cap)
        .data_packets()
        .filter(|p| p.src.0 == server)
        .count();
    assert_eq!(server_data, 0);
    let fin = sim
        .capture(cap)
        .packets()
        .iter()
        .find(|p| p.flags.fin && p.src.0 == server)
        .expect("sink must close");
    assert!((29.0..32.0).contains(&fin.sent_at.as_secs_f64()));
}

#[test]
fn responding_server_answers_everything() {
    let mut sim = Simulator::new(SimConfig::default(), 51);
    let server = sim.add_host(HostConfig::outside("responder"));
    let client = sim.add_host(HostConfig::china("client"));
    let app = sim.add_app(Box::new(RespondingServerApp::default()));
    sim.listen((server, 1), app);
    let got = Rc::new(RefCell::new(0usize));
    struct Probe {
        got: Rc<RefCell<usize>>,
    }
    impl App for Probe {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            match ev {
                AppEvent::Connected { conn } => ctx.send(conn, vec![0xEE; 221]),
                AppEvent::Data { conn, data } => {
                    *self.got.borrow_mut() += data.len();
                    ctx.fin(conn);
                }
                _ => {}
            }
        }
    }
    let capp = sim.add_app(Box::new(Probe { got: got.clone() }));
    sim.connect_at(
        SimTime::ZERO,
        capp,
        client,
        (server, 1),
        TcpTuning::default(),
    );
    sim.run();
    let n = *got.borrow();
    assert!((1..=1000).contains(&n), "responder sent {n} bytes");
}

#[test]
fn proxy_works_for_every_aead_method() {
    for method in [
        Method::Aes128Gcm,
        Method::Aes192Gcm,
        Method::Aes256Gcm,
        Method::ChaCha20IetfPoly1305,
        Method::XChaCha20IetfPoly1305,
    ] {
        let config = ServerConfig::new(method, "apps-pw", Profile::LIBEV_NEW);
        let mut world = build(&config);
        let target = TargetAddr::Ipv4(world.web_ip.0, 80);
        let (received, _) = proxy_client(&mut world, &config, target);
        world.sim.run_until(SimTime::ZERO + Duration::from_secs(5));
        assert!(
            received.borrow().starts_with(b"HTTP/1.1 200 OK"),
            "{} failed",
            method.name()
        );
        let _ = world.server_app;
    }
}
