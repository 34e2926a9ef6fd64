//! End-to-end pipeline tests: genuine Shadowsocks traffic crosses the
//! simulated border, the GFW model detects it passively, launches
//! staged probes from its fleet, classifies the reactions, and (when
//! sensitive) blocks the server — the whole paper in one simulator run.

use gfw_core::blocking::BlockingConfig;
use gfw_core::classifier::{Signature, Verdict};
use gfw_core::fleet::FleetConfig;
use gfw_core::probe::{ProbeKind, Reaction};
use gfw_core::{Gfw, GfwConfig};
use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::{ConnId, TcpTuning};
use netsim::flow::fill_bulk;
use netsim::host::HostConfig;
use netsim::packet::{Ipv4, Payload};
use netsim::time::{Duration, SimTime};
use netsim::{EngineMode, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::apps::SsServerApp;
use shadowsocks::{ClientSession, Profile, ServerConfig, TargetAddr};
use sscrypto::method::Method;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use trafficgen::drivers::{BulkTransferClient, Sample};

/// Drives genuine Shadowsocks connections: one fresh session per
/// connection, a single first packet each (plenty to trigger the GFW).
struct SsTrafficDriver {
    config: ServerConfig,
    target: TargetAddr,
    payload_len: usize,
    sessions: HashMap<ConnId, ClientSession>,
    rng: StdRng,
    outcomes: Rc<RefCell<Vec<&'static str>>>,
}

impl App for SsTrafficDriver {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let mut session =
                    ClientSession::new(&self.config, self.target.clone(), &mut self.rng);
                let mut body = vec![0u8; self.payload_len];
                self.rng.fill(&mut body[..]);
                let wire = session.send(&body);
                self.sessions.insert(conn, session);
                ctx.send(conn, wire);
                self.outcomes.borrow_mut().push("connected");
            }
            AppEvent::ConnectFailed { .. } => {
                self.outcomes.borrow_mut().push("connect_failed");
            }
            AppEvent::Data { conn, .. } => {
                ctx.fin(conn);
            }
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => {
                self.sessions.remove(&conn);
                ctx.fin(conn);
            }
            _ => {}
        }
    }
}

struct Setup {
    sim: Simulator,
    handle: gfw_core::GfwHandle,
    server_ip: Ipv4,
    driver: netsim::app::AppId,
    client_ip: Ipv4,
    cap: netsim::sim::CaptureId,
    outcomes: Rc<RefCell<Vec<&'static str>>>,
}

fn build(profile: Profile, method: Method, sensitivity: f64, seed: u64) -> Setup {
    let mut sim = Simulator::new(SimConfig::default(), seed);
    let mut gfw_config = GfwConfig::default();
    gfw_config.fleet.pool_size = 600;
    gfw_config.blocking = BlockingConfig {
        sensitivity,
        ..Default::default()
    };
    // Tighten NR pacing so short tests still see NR probes.
    gfw_config.scheduler.nr_min_gap = Duration::from_mins(2);
    let _ = FleetConfig::default();
    let handle = Gfw::install(&mut sim, gfw_config, seed ^ 0xBEEF);

    let server_ip = sim.add_host(HostConfig::outside("ss-server"));
    let client_ip = sim.add_host(HostConfig::china("ss-client"));
    let web_ip = sim.add_host(HostConfig::outside("website"));
    let cap = sim.add_capture(Capture::with_filter(move |p| {
        p.src.0 == server_ip || p.dst.0 == server_ip
    }));

    let ss_config = ServerConfig::new(method, "pipeline-pw", profile);
    // The website echoes so proxied fetches complete.
    struct Web;
    impl App for Web {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            if let AppEvent::Data { conn, data } = ev {
                ctx.send(conn, data.bytes().into_owned());
            }
        }
    }
    let web = sim.add_app(Box::new(Web));
    sim.listen((web_ip, 443), web);

    let server_app = sim.add_app(Box::new(SsServerApp::new(
        ss_config.clone(),
        server_ip,
        seed ^ 0x5E4,
    )));
    sim.listen((server_ip, 8388), server_app);

    let outcomes = Rc::new(RefCell::new(Vec::new()));
    // First-packet wire length: IV/salt + overhead + payload. Choose the
    // payload so the wire length lands on an attractive length (mod 16
    // remainder 2, inside the 384–687 band).
    let overhead = match method.kind() {
        sscrypto::method::Kind::Stream => method.iv_len() + 7,
        sscrypto::method::Kind::Aead => method.iv_len() + (2 + 16 + 16) * 2 + 7,
    };
    let wire_target = 402; // already ≡ 2 (mod 16): an attractive remainder
    let payload_len = wire_target + 160 - overhead; // stay in-band regardless
    let driver = sim.add_app(Box::new(SsTrafficDriver {
        config: ss_config,
        target: TargetAddr::Ipv4(web_ip.0, 443),
        payload_len,
        sessions: HashMap::new(),
        rng: StdRng::seed_from_u64(seed ^ 0xD1),
        outcomes: outcomes.clone(),
    }));

    Setup {
        sim,
        handle,
        server_ip,
        driver,
        client_ip,
        cap,
        outcomes,
    }
}

fn drive_connections(setup: &mut Setup, n: usize, spacing: Duration) {
    for i in 0..n {
        setup.sim.connect_at(
            SimTime::ZERO + Duration::from_nanos(spacing.as_nanos() * i as u64),
            setup.driver,
            setup.client_ip,
            (setup.server_ip, 8388),
            TcpTuning::default(),
        );
    }
}

#[test]
fn libev_server_gets_stage1_probes_only() {
    let mut setup = build(Profile::LIBEV_OLD, Method::Aes256Cfb, 0.0, 11);
    drive_connections(&mut setup, 800, Duration::from_secs(30));
    setup.sim.run();

    let st = setup.handle.state.borrow();
    let probes = st.probes();
    assert!(
        probes.len() >= 20,
        "expected substantial probing, got {}",
        probes.len()
    );
    let kinds: std::collections::HashSet<ProbeKind> = probes.iter().map(|p| p.kind).collect();
    assert!(kinds.contains(&ProbeKind::R1), "kinds: {kinds:?}");
    assert!(kinds.contains(&ProbeKind::Nr2), "kinds: {kinds:?}");
    // libev never answers probes with data → stage 2 never unlocks.
    assert!(!kinds.contains(&ProbeKind::R3), "kinds: {kinds:?}");
    assert!(!kinds.contains(&ProbeKind::R4), "kinds: {kinds:?}");
    assert!(!kinds.contains(&ProbeKind::R5), "kinds: {kinds:?}");

    // Identical replays hit the replay filter → RST (Table 5 row 1).
    let r1_reactions: Vec<Reaction> = probes
        .iter()
        .filter(|p| p.kind == ProbeKind::R1)
        .filter_map(|p| p.reaction)
        .collect();
    assert!(!r1_reactions.is_empty());
    assert!(
        r1_reactions.iter().all(|&r| r == Reaction::Rst),
        "{r1_reactions:?}"
    );

    // Genuine Shadowsocks traffic has a consistent first-packet length
    // remainder → NR1 probes appear (unlike the random-data sink).
    assert!(kinds.contains(&ProbeKind::Nr1), "kinds: {kinds:?}");
}

#[test]
fn libev_probes_have_paper_fingerprints() {
    let mut setup = build(Profile::LIBEV_OLD, Method::Aes256Cfb, 0.0, 12);
    drive_connections(&mut setup, 600, Duration::from_secs(30));
    setup.sim.run();

    let st = setup.handle.state.borrow();
    for rec in st.probes() {
        assert!(
            analysis::asn::lookup(rec.src).is_some(),
            "prober {} has no AS",
            rec.src
        );
        assert!(rec.src_port >= 1024);
    }
    // Check wire-level fingerprints via the capture.
    let cap = setup.sim.capture(setup.cap);
    let prober_data: Vec<_> = cap
        .data_packets()
        .filter(|p| p.dst.0 == setup.server_ip && analysis::asn::lookup(p.src.0).is_some())
        .collect();
    assert!(!prober_data.is_empty());
    for p in &prober_data {
        assert!((46..=50).contains(&p.ttl), "prober TTL {}", p.ttl);
    }
}

#[test]
fn outline_server_unlocks_stage2_and_gets_blocked() {
    // OutlineVPN v1.0.7: no replay filter → R1 is proxied → answered
    // with data → stage 2 unlocks → R3/R4 appear → high-confidence
    // verdict → blocked under a sensitive regime.
    let mut setup = build(
        Profile::OUTLINE_1_0_7,
        Method::ChaCha20IetfPoly1305,
        1.0,
        13,
    );
    drive_connections(&mut setup, 800, Duration::from_secs(30));
    setup.sim.run();

    let server_addr = (setup.server_ip, 8388);
    let st = setup.handle.state.borrow();
    let kinds: std::collections::HashSet<ProbeKind> = st.probes().iter().map(|p| p.kind).collect();
    assert!(
        kinds.contains(&ProbeKind::R3) || kinds.contains(&ProbeKind::R4),
        "stage 2 should have unlocked; kinds: {kinds:?}"
    );
    // Some R1 was answered with data.
    assert!(st
        .probes()
        .iter()
        .any(|p| p.kind == ProbeKind::R1 && p.reaction == Some(Reaction::Data)));
    match st.classifier.verdict(server_addr) {
        Verdict::LikelyShadowsocks {
            signature,
            confidence,
        } => {
            assert_eq!(signature, Signature::RepliesToReplay);
            assert!(confidence > 0.9);
        }
        v => panic!("verdict {v:?}"),
    }
    let rules = st.blocking.all_rules();
    assert!(!rules.is_empty(), "server should be blocked");
    drop(st);

    // A new legitimate connection now fails: the SYN-ACK is dropped on
    // the way back into China (unidirectional null-routing, §6).
    let before = setup.outcomes.borrow().len();
    let t = setup.sim.now();
    setup.sim.connect_at(
        t + Duration::from_secs(60),
        setup.driver,
        setup.client_ip,
        (setup.server_ip, 8388),
        TcpTuning::default(),
    );
    setup.sim.run();
    let outcomes = setup.outcomes.borrow();
    assert_eq!(
        outcomes[before..],
        ["connect_failed"],
        "client must not reach a blocked server"
    );
}

#[test]
fn sink_host_without_traffic_is_never_probed() {
    // The control server of §3.1: exists, listens, never contacted by
    // any client — and receives no probes (no proactive scanning, §4).
    let mut setup = build(Profile::LIBEV_OLD, Method::Aes256Cfb, 0.0, 14);
    let control_ip = setup.sim.add_host(HostConfig::outside("control"));
    struct Nop;
    impl App for Nop {
        fn on_event(&mut self, _: AppEvent, _: &mut Ctx) {}
    }
    let nop = setup.sim.add_app(Box::new(Nop));
    setup.sim.listen((control_ip, 8388), nop);
    drive_connections(&mut setup, 300, Duration::from_secs(30));
    setup.sim.run();

    let st = setup.handle.state.borrow();
    assert!(st.probes().iter().all(|p| p.server.0 != control_ip));
    assert!(!st.probes().is_empty(), "the real server was probed");
}

#[test]
fn tap_state_drains_when_connections_close() {
    // Regression: the tap used to retire only inspected-flow entries on
    // RST/FIN and keep its own probe entries forever, retaining one map
    // slot per probe for the lifetime of the simulation. After every
    // connection (client traffic and probes alike) has torn down, the
    // per-connection table must be empty again.
    let mut setup = build(Profile::LIBEV_OLD, Method::Aes256Cfb, 0.0, 16);
    drive_connections(&mut setup, 400, Duration::from_secs(30));
    setup.sim.run();

    let st = setup.handle.state.borrow();
    assert!(
        !st.probes().is_empty(),
        "run produced no probes, test is vacuous"
    );
    // Border-crossing connections (client traffic and probes) have all
    // torn down; only the server's upstream legs to the website — which
    // never cross the border and are invisible to the tap — stay open.
    assert_eq!(
        st.tracked_conns(),
        0,
        "tap retained per-connection state after teardown"
    );
}

#[test]
fn probe_pipeline_events_stay_linear_in_packets() {
    // Regression: the controller's order wake-up used to be re-armed on
    // every stored payload and every resolved probe without replacing
    // the old one, so duplicate timers piled up and each due time fired
    // all of them — events grew with the square of the run's length
    // (about 5.9 per packet here). With one armed wake-up the probe
    // pipeline costs a bounded number of events per packet.
    let mut setup = build(Profile::LIBEV_OLD, Method::Aes256Cfb, 0.0, 17);
    drive_connections(&mut setup, 2_000, Duration::from_secs(5));
    setup.sim.run();

    let st = setup.handle.state.borrow();
    assert!(
        !st.probes().is_empty(),
        "run produced no probes, test is vacuous"
    );
    let stats = &setup.sim.stats;
    assert!(
        stats.events < 2 * stats.packets_sent,
        "{} events for {} packets sent",
        stats.events,
        stats.packets_sent
    );
}

#[test]
fn plaintext_traffic_is_not_probed() {
    // HTTP through the same path draws no probes (protocol exemption).
    let mut setup = build(Profile::LIBEV_OLD, Method::Aes256Cfb, 0.0, 15);
    struct HttpClient;
    impl App for HttpClient {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            if let AppEvent::Connected { conn } = ev {
                let mut req = b"GET /page HTTP/1.1\r\nHost: example.com\r\n".to_vec();
                req.resize(402, b'x');
                ctx.send(conn, req);
            }
        }
    }
    let http_server_ip = setup.sim.add_host(HostConfig::outside("web"));
    struct Nop;
    impl App for Nop {
        fn on_event(&mut self, _: AppEvent, _: &mut Ctx) {}
    }
    let nop = setup.sim.add_app(Box::new(Nop));
    setup.sim.listen((http_server_ip, 80), nop);
    let http = setup.sim.add_app(Box::new(HttpClient));
    for i in 0..500 {
        setup.sim.connect_at(
            SimTime::ZERO + Duration::from_secs(i * 20),
            http,
            setup.client_ip,
            (http_server_ip, 80),
            TcpTuning::default(),
        );
    }
    setup.sim.run();
    let st = setup.handle.state.borrow();
    assert!(
        st.probes().iter().all(|p| p.server.0 != http_server_ip),
        "HTTP server must not be probed"
    );
}

#[test]
fn tap_scores_bulk_first_segments_under_both_engines() {
    // No golden run sends a bulk segment as a connection's first data
    // packet, so this pins the tap's view of one: a bulk segment
    // carries a range of the bulk stream, and the tap synthesizes its
    // bytes to score and store them. Each connection is inspected
    // once, and every stored payload is `fill_bulk(conn, 0)` cut to the
    // segment's length, as the R1 (identical) and R2 (byte 0 changed)
    // replays on the wire show.
    for engine in [EngineMode::Packet, EngineMode::Hybrid] {
        let config = SimConfig {
            engine,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, 19);
        let mut gfw_config = GfwConfig::default();
        // Store most in-band payloads, and never block the sink, so
        // replays are plentiful and every probe reaches it.
        gfw_config.passive.scale = 0.01;
        gfw_config.blocking.sensitivity = 0.0;
        let handle = Gfw::install(&mut sim, gfw_config, 19 ^ 0xBEEF);
        let sink_ip = sim.add_host(HostConfig::outside("bulk-sink"));
        let client_ip = sim.add_host(HostConfig::china("bulk-client"));
        let cap = sim.add_capture(Capture::with_filter(move |p| {
            p.dst.0 == sink_ip && p.has_payload()
        }));
        struct Sink;
        impl App for Sink {
            fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
                if let AppEvent::PeerFin { conn } = ev {
                    ctx.fin(conn);
                }
            }
        }
        let sink = sim.add_app(Box::new(Sink));
        sim.listen((sink_ip, 443), sink);
        // One-segment transfers of an attractive length (≡ 2 mod 16,
        // in the 384–687 band), and large ones whose tail the hybrid
        // engine promotes.
        let small = BulkTransferClient::new(Sample::Fixed(402.0));
        let large = BulkTransferClient::new(Sample::Fixed(262_144.0));
        let small = sim.add_app(Box::new(small));
        let large = sim.add_app(Box::new(large));
        let conns = 90u64;
        for i in 0..conns {
            sim.connect_at(
                SimTime::ZERO + Duration::from_secs(i),
                if i % 3 == 0 { large } else { small },
                client_ip,
                (sink_ip, 443),
                TcpTuning::default(),
            );
        }
        sim.run();
        if engine == EngineMode::Hybrid {
            assert!(sim.stats.flows_promoted > 0, "no transfer was promoted");
        }

        let st = handle.state.borrow();
        assert_eq!(
            st.verdict_counters().inspected,
            conns,
            "{engine:?}: each connection is inspected exactly once"
        );
        // First segments, keyed by their bytes after byte 0 (the byte
        // an R2 replay changes).
        let mut firsts: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for p in sim.capture(cap).first_data_per_conn() {
            if p.src.0 != client_ip {
                continue;
            }
            let mut want = vec![0u8; p.payload.len()];
            fill_bulk(&mut want, p.conn, 0);
            assert_eq!(p.payload, Payload::Bytes(want.clone().into()));
            firsts.insert(want[1..].to_vec(), want);
        }
        assert_eq!(firsts.len() as u64, conns);
        let (mut r1, mut r2) = (0usize, 0usize);
        for p in sim.capture(cap).data_packets() {
            if p.src.0 == client_ip {
                continue;
            }
            let probe = p.payload.bytes();
            if let Some(first) = probe.get(1..).and_then(|tail| firsts.get(tail)) {
                if probe[0] == first[0] {
                    r1 += 1;
                } else {
                    r2 += 1;
                }
            }
        }
        let count = |kind: ProbeKind| st.probes().iter().filter(|p| p.kind == kind).count();
        assert!(r1 > 0, "{engine:?}: no stored payload was replayed");
        assert_eq!(r1, count(ProbeKind::R1), "{engine:?}: R1 replays");
        assert_eq!(r2, count(ProbeKind::R2), "{engine:?}: R2 replays");
    }
}
