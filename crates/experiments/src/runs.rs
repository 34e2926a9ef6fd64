//! Canonical simulation runs, shared by the per-figure analyses.
//!
//! * [`shadowsocks_run`] — §3.1's measurement: a real Shadowsocks
//!   server, a Chinese client constantly fetching one site through it,
//!   the GFW model on path.
//! * [`sink_run`] — §4.1's random-data experiments (Table 4): a
//!   sink/responding TCP server and clients sending single payloads of
//!   controlled length/entropy. It hands back the captured trigger and
//!   prober payloads as shared handles; the figures that read them
//!   (Fig 9) do their own analysis.
//! * [`brdgrd_run`] — §7.1's mitigation test (Fig 11): the Shadowsocks
//!   run with window shaping toggled on a schedule.

use defense::brdgrd::Brdgrd;
use gfw_core::blocking::BlockRule;
use gfw_core::probe::ProbeRecord;
use gfw_core::{Gfw, GfwConfig};
use netsim::app::{App, AppEvent, Ctx};
use netsim::capture::Capture;
use netsim::conn::{ConnId, TcpTuning};
use netsim::hash::HashMap;
use netsim::host::HostConfig;
use netsim::packet::{Ipv4, Payload, SocketAddr};
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::apps::{RespondingServerApp, SinkServerApp, SsServerApp};
use shadowsocks::{ClientSession, Profile, ServerConfig, TargetAddr};
use sscrypto::method::Method;

/// Configuration of the §3.1-style run.
#[derive(Clone, Debug)]
pub struct SsRunConfig {
    /// Server implementation profile.
    pub profile: Profile,
    /// Cipher method.
    pub method: Method,
    /// Number of trigger connections to drive.
    pub connections: usize,
    /// Spacing between connections.
    pub conn_interval: Duration,
    /// Application payload bytes sent on each connection (the site's
    /// first request); constant per run, like the paper's repeated curl
    /// fetches of one URL. `None` picks a length that makes the wire
    /// first packet land on an attractive length for the configured
    /// method (mod-16 remainder 2, inside the 384-687 band).
    pub payload_len: Option<usize>,
    /// Blocking sensitivity (0 = observe only).
    pub sensitivity: f64,
    /// Prober fleet pool size.
    pub fleet_pool: usize,
    /// Gap between random probes per server.
    pub nr_min_gap: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Link impairment model. The default no-op keeps the run
    /// byte-identical to the pre-impairment simulator.
    pub impairment: netsim::ImpairmentSpec,
    /// Per-probe connect-failure retry budget for the GFW's prober
    /// fleet (only meaningful under loss).
    pub probe_retries: u32,
}

impl Default for SsRunConfig {
    fn default() -> Self {
        SsRunConfig {
            profile: Profile::LIBEV_OLD,
            method: Method::Aes256Cfb,
            connections: 2_000,
            conn_interval: Duration::from_secs(30),
            payload_len: None,
            sensitivity: 0.0,
            fleet_pool: 4_000,
            nr_min_gap: Duration::from_mins(18),
            seed: 2020,
            impairment: netsim::ImpairmentSpec::default(),
            probe_retries: 0,
        }
    }
}

/// First-packet framing overhead for a method: the wire bytes added to
/// the application payload (IV/salt, target spec, AEAD chunk framing
/// with a 7-byte IPv4 spec in its own chunk).
fn first_packet_overhead(method: Method) -> usize {
    match method.kind() {
        sscrypto::method::Kind::Stream => method.iv_len() + 7,
        sscrypto::method::Kind::Aead => method.iv_len() + (2 + 16) + 7 + 16 + (2 + 16) + 16,
    }
}

/// An application payload length that makes the first wire packet land
/// in the GFW's preferred band with remainder 2 mod 16.
pub fn attractive_payload_len(method: Method) -> usize {
    let overhead = first_packet_overhead(method);
    let mut wire = 480;
    while wire % 16 != 2 {
        wire += 1;
    }
    wire - overhead
}

/// A probe SYN as captured on the wire (for Figs 5 and 6).
#[derive(Clone, Copy, Debug)]
pub struct SynObs {
    /// Capture time in seconds.
    pub secs: f64,
    /// TCP timestamp value.
    pub tsval: u32,
    /// Source port.
    pub sport: u16,
    /// Source address.
    pub src: Ipv4,
}

/// Output of the Shadowsocks run.
pub struct SsRunResult {
    /// Every probe the GFW sent, with reactions.
    pub probes: Vec<ProbeRecord>,
    /// Probe SYNs on the wire.
    pub probe_syns: Vec<SynObs>,
    /// TTLs of prober data packets (min, max).
    pub prober_ttl_range: Option<(u8, u8)>,
    /// The server's address.
    pub server: SocketAddr,
    /// Trigger connections driven.
    pub trigger_conns: usize,
    /// Blocking rules installed.
    pub block_rules: Vec<BlockRule>,
    /// First-data packets the GFW inspected.
    pub inspected: u64,
}

/// Client driver: one fresh Shadowsocks session per connection,
/// constant-size first request — the paper's curl loop.
struct SsDriver {
    config: ServerConfig,
    target: TargetAddr,
    payload_len: usize,
    rng: StdRng,
    sessions: HashMap<ConnId, ClientSession>,
}

impl App for SsDriver {
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
                ctx.set_timer(Duration::from_secs(20), conn.0);
            }
            AppEvent::Timer { token } => {
                ctx.fin(ConnId(token));
                self.sessions.remove(&ConnId(token));
            }
            AppEvent::Data { .. } => {}
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => {
                self.sessions.remove(&conn);
            }
            _ => {}
        }
    }
}

struct EchoWeb;
impl App for EchoWeb {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            ctx.send(conn, data.bytes().into_owned());
        }
    }
}

/// Internal: assemble the §3.1 world and return the pieces.
pub struct SsWorld {
    /// The simulator.
    pub sim: Simulator,
    /// GFW handle.
    pub handle: gfw_core::GfwHandle,
    /// Server address.
    pub server_ip: Ipv4,
    /// Client address.
    pub client_ip: Ipv4,
    /// Driver app.
    pub driver: netsim::app::AppId,
    /// Server-inbound capture of the probers' handshakes and data.
    pub cap: netsim::sim::CaptureId,
}

/// Build the §3.1 world without driving any traffic yet.
pub fn build_ss_world(cfg: &SsRunConfig) -> SsWorld {
    let sim_config = SimConfig {
        impairment: cfg.impairment,
        engine: crate::engine_mode(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(sim_config, cfg.seed);
    let mut gfw_config = GfwConfig::default();
    gfw_config.fleet.pool_size = cfg.fleet_pool;
    gfw_config.fleet.probe_retries = cfg.probe_retries;
    gfw_config.blocking.sensitivity = cfg.sensitivity;
    gfw_config.scheduler.nr_min_gap = cfg.nr_min_gap;
    let handle = Gfw::install(&mut sim, gfw_config, cfg.seed ^ 0x6F3);

    let server_ip = sim.add_host(HostConfig::outside("ss-server"));
    let client_ip = sim.add_host(HostConfig::china("client"));
    let web_ip = sim.add_host(HostConfig::outside("website"));

    // Capture only server-inbound handshakes and data from the probers
    // (memory bound): every reader keys on prober sources, so the
    // trigger client's own packets are never stored.
    let cap = sim.add_capture(Capture::with_filter(move |p| {
        p.dst.0 == server_ip && p.src.0 != client_ip && (p.flags.syn || p.has_payload())
    }));

    let web = sim.add_app(Box::new(EchoWeb));
    sim.listen((web_ip, 443), web);

    let ss_config = ServerConfig::new(cfg.method, "run-password", cfg.profile);
    let server_app = sim.add_app(Box::new(SsServerApp::new(
        ss_config.clone(),
        server_ip,
        cfg.seed ^ 0x51,
    )));
    sim.listen((server_ip, 8388), server_app);

    let payload_len = cfg
        .payload_len
        .unwrap_or_else(|| attractive_payload_len(cfg.method));
    let driver = sim.add_app(Box::new(SsDriver {
        config: ss_config,
        target: TargetAddr::Ipv4(web_ip.0, 443),
        payload_len,
        rng: StdRng::seed_from_u64(cfg.seed ^ 0xD2),
        sessions: HashMap::default(),
    }));

    SsWorld {
        sim,
        handle,
        server_ip,
        client_ip,
        driver,
        cap,
    }
}

/// Harvest the run results from a finished world.
pub fn harvest(world: &SsWorld, trigger_conns: usize) -> SsRunResult {
    let st = world.handle.state.borrow();
    let cap = world.sim.capture(world.cap);
    let probe_syns: Vec<SynObs> = cap
        .syns()
        .filter(|p| analysis::asn::lookup(p.src.0).is_some())
        .filter_map(|p| {
            p.tsval.map(|v| SynObs {
                secs: p.sent_at.as_secs_f64(),
                tsval: v,
                sport: p.src.1,
                src: p.src.0,
            })
        })
        .collect();
    let ttls: Vec<u8> = cap
        .data_packets()
        .filter(|p| analysis::asn::lookup(p.src.0).is_some())
        .map(|p| p.ttl)
        .collect();
    let prober_ttl_range = if ttls.is_empty() {
        None
    } else {
        Some((*ttls.iter().min().unwrap(), *ttls.iter().max().unwrap()))
    };
    SsRunResult {
        probes: st.probes().to_vec(),
        probe_syns,
        prober_ttl_range,
        server: (world.server_ip, 8388),
        trigger_conns,
        block_rules: st.blocking.all_rules().to_vec(),
        inspected: st.inspected_connections(),
    }
}

/// Run the full §3.1 experiment.
pub fn shadowsocks_run(cfg: &SsRunConfig) -> SsRunResult {
    let mut world = build_ss_world(cfg);
    for i in 0..cfg.connections {
        world.sim.connect_at(
            SimTime::ZERO + Duration::from_nanos(cfg.conn_interval.as_nanos() * i as u64),
            world.driver,
            world.client_ip,
            (world.server_ip, 8388),
            TcpTuning::default(),
        );
    }
    world.sim.run();
    crate::runner::record_sim_stats(&world.sim.stats);
    harvest(&world, cfg.connections)
}

// ---------------------------------------------------------------------
// Random-data (sink) runs — §4.1 / Table 4
// ---------------------------------------------------------------------

/// Which Table 4 experiment to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkExp {
    /// Exp 1.a: len \[1,1000\], entropy > 7, sink.
    Exp1a,
    /// Exp 1.b: len \[1,1000\], entropy > 7, responding.
    Exp1b,
    /// Exp 2: len \[1,1000\], entropy < 2, sink.
    Exp2,
    /// Exp 3: len \[1,2000\], entropy \[0,8\], sink.
    Exp3,
}

/// Configuration of a random-data run.
#[derive(Clone, Copy, Debug)]
pub struct SinkRunConfig {
    /// Which Table 4 experiment.
    pub exp: SinkExp,
    /// Trigger connections to drive.
    pub connections: usize,
    /// Spacing between connections.
    pub conn_interval: Duration,
    /// RNG seed.
    pub seed: u64,
}

/// Output of a random-data run.
pub struct SinkRunResult {
    /// Probes received.
    pub probes: Vec<ProbeRecord>,
    /// The first data payload of each trigger connection, in capture
    /// order.
    pub triggers: Vec<Payload>,
    /// Every data payload a prober sent to the server, in capture order.
    pub prober_payloads: Vec<Payload>,
}

/// Run one Table 4 experiment.
pub fn sink_run(cfg: &SinkRunConfig) -> SinkRunResult {
    let sim_config = SimConfig {
        engine: crate::engine_mode(),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(sim_config, cfg.seed);
    let mut gfw_config = GfwConfig::default();
    gfw_config.fleet.pool_size = 3_000;
    gfw_config.blocking.sensitivity = 0.0;
    let handle = Gfw::install(&mut sim, gfw_config, cfg.seed ^ 0xA1);

    let server_ip = sim.add_host(HostConfig::outside("sink"));
    let client_ip = sim.add_host(HostConfig::china("client"));
    let cap = sim.add_capture(Capture::with_filter(move |p| {
        p.dst.0 == server_ip && p.has_payload()
    }));

    let server: Box<dyn App> = match cfg.exp {
        SinkExp::Exp1b => Box::new(RespondingServerApp::default()),
        _ => Box::new(SinkServerApp::default()),
    };
    let server_app = sim.add_app(server);
    sim.listen((server_ip, 12000), server_app);

    let client = match cfg.exp {
        SinkExp::Exp1a | SinkExp::Exp1b => trafficgen::RandomDataClient::exp1(),
        SinkExp::Exp2 => trafficgen::RandomDataClient::exp2(),
        SinkExp::Exp3 => trafficgen::RandomDataClient::exp3(),
    };
    let client_app = sim.add_app(Box::new(client));
    for i in 0..cfg.connections {
        sim.connect_at(
            SimTime::ZERO + Duration::from_nanos(cfg.conn_interval.as_nanos() * i as u64),
            client_app,
            client_ip,
            (server_ip, 12000),
            TcpTuning::default(),
        );
    }
    sim.run();
    crate::runner::record_sim_stats(&sim.stats);

    // Trigger payloads from the capture: the first data packet of each
    // client connection. Prober packets are told apart by AS lookup.
    // Each handle shares the captured bytes.
    let capref = sim.capture(cap);
    let triggers = capref
        .first_data_per_conn()
        .into_iter()
        .filter(|p| analysis::asn::lookup(p.src.0).is_none())
        .map(|p| p.payload.clone())
        .collect();
    let prober_payloads = capref
        .data_packets()
        .filter(|p| analysis::asn::lookup(p.src.0).is_some())
        .map(|p| p.payload.clone())
        .collect();

    let st = handle.state.borrow();
    SinkRunResult {
        probes: st.probes().to_vec(),
        triggers,
        prober_payloads,
    }
}

// ---------------------------------------------------------------------
// brdgrd run — §7.1 / Fig 11
// ---------------------------------------------------------------------

/// Configuration of the brdgrd toggle run.
#[derive(Clone, Debug)]
pub struct BrdgrdRunConfig {
    /// Total simulated hours.
    pub hours: u64,
    /// Hours during which brdgrd is active: list of (start, end).
    pub active_windows: Vec<(u64, u64)>,
    /// Connections per 5 minutes (the paper used 16).
    pub conns_per_5min: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Output: prober SYNs per hour plus the schedule.
pub struct BrdgrdRunResult {
    /// Probe SYN count for each hour.
    pub probes_per_hour: Vec<u32>,
    /// Echo of the active windows.
    pub active_windows: Vec<(u64, u64)>,
}

/// One toggle-to-toggle stretch of the Fig 11 schedule, simulated in
/// its own fresh world with the shaper constantly on or off, counting
/// prober SYNs hour by hour.
fn brdgrd_segment(cfg: &BrdgrdRunConfig, start: u64, end: u64, active: bool) -> Vec<u32> {
    let ss_cfg = SsRunConfig {
        connections: 0,
        // Distinct per-segment seed, derived from the run seed and the
        // segment's position in the schedule.
        seed: cfg.seed ^ start.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..Default::default()
    };
    let mut world = build_ss_world(&ss_cfg);
    if active {
        Brdgrd::default().enable(&mut world.sim, world.server_ip);
    }
    // The segment's share of the trigger schedule.
    let interval_secs = (300 / cfg.conns_per_5min.max(1)).max(1);
    let interval = Duration::from_secs(interval_secs);
    let seg_conns = (end - start) * 3600 / interval_secs;
    for i in 0..seg_conns {
        world.sim.connect_at(
            SimTime::ZERO + Duration::from_nanos(interval.as_nanos() * i),
            world.driver,
            world.client_ip,
            (world.server_ip, 8388),
            TcpTuning::default(),
        );
    }
    let mut probes_per_hour = Vec::with_capacity((end - start) as usize);
    let mut last_count = 0usize;
    for hour in 1..=(end - start) {
        world
            .sim
            .run_until(SimTime::ZERO + Duration::from_hours(hour));
        let syns_so_far = world
            .sim
            .capture(world.cap)
            .syns()
            .filter(|p| analysis::asn::lookup(p.src.0).is_some())
            .count();
        probes_per_hour.push((syns_so_far - last_count) as u32);
        last_count = syns_so_far;
    }
    crate::runner::record_sim_stats(&world.sim.stats);
    probes_per_hour
}

/// Run the Fig 11 experiment.
///
/// Every stretch of hours between shaper toggles is an independent
/// runner job (a fresh world with brdgrd constantly on or off); the
/// per-hour counts are concatenated in schedule order. Segment
/// isolation — no probe stragglers crossing a toggle — is the one
/// deliberate deviation from a single continuous world; the figure's
/// observable (probe rate while shaped vs unshaped) is unaffected, and
/// the segments run concurrently.
pub fn brdgrd_run(cfg: &BrdgrdRunConfig) -> BrdgrdRunResult {
    let mut bounds: Vec<u64> = vec![0, cfg.hours];
    for &(s, e) in &cfg.active_windows {
        bounds.push(s.min(cfg.hours));
        bounds.push(e.min(cfg.hours));
    }
    bounds.sort_unstable();
    bounds.dedup();
    let specs: Vec<_> = bounds
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| {
            let (start, end) = (w[0], w[1]);
            let active = cfg
                .active_windows
                .iter()
                .any(|&(s, e)| start >= s && start < e);
            let cfg = cfg.clone();
            move || brdgrd_segment(&cfg, start, end, active)
        })
        .collect();
    let probes_per_hour = crate::runner::run_jobs(specs)
        .into_iter()
        .flatten()
        .collect();
    BrdgrdRunResult {
        probes_per_hour,
        active_windows: cfg.active_windows.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowsocks_run_produces_probes() {
        let cfg = SsRunConfig {
            connections: 400,
            conn_interval: Duration::from_secs(20),
            fleet_pool: 500,
            seed: 5,
            ..Default::default()
        };
        let res = shadowsocks_run(&cfg);
        assert!(res.probes.len() > 10, "{} probes", res.probes.len());
        assert!(!res.probe_syns.is_empty());
        assert_eq!(res.trigger_conns, 400);
        let (lo, hi) = res.prober_ttl_range.unwrap();
        assert!((46..=50).contains(&lo) && (46..=50).contains(&hi));
    }

    #[test]
    fn sink_run_exp1a_gets_replays() {
        let cfg = SinkRunConfig {
            exp: SinkExp::Exp1a,
            connections: 4_000,
            conn_interval: Duration::from_secs(2),
            seed: 6,
        };
        let res = sink_run(&cfg);
        assert_eq!(res.triggers.len(), 4_000);
        assert!(
            res.probes.iter().any(|p| p.kind.is_replay()),
            "no replays among {} probes",
            res.probes.len()
        );
        // NR1 must not appear for uniform random lengths.
        assert!(res
            .probes
            .iter()
            .all(|p| p.kind != gfw_core::probe::ProbeKind::Nr1));
    }
}
