//! The traffic mix: a configurable blend of background protocol flows
//! and Shadowsocks flows at a given base rate.
//!
//! [`TrafficMix::install`] builds the whole population on a simulator:
//! one server host per background [`Profile`], a Shadowsocks server
//! (with its relay target), a shared in-China client host, and a
//! deterministic arrival schedule that interleaves exactly
//! `background / base_rate` Shadowsocks flows (evenly spaced) among
//! the background flows.
//!
//! ## Determinism across engines and worker counts
//!
//! Every payload byte generated here depends only on `(spec.seed,
//! connection id)` via [`crate::profiles::conn_rng`] — the apps never draw
//! from the shared simulator RNG. Each use has its own stream, keyed by
//! a `STREAM_*` tag: the schedule, the server greeting, the client's
//! first payload, the server response, the bulk-tail size, the
//! Shadowsocks session and the relay target's page. The tail size has
//! a stream of its own so that the server never builds or walks the
//! response to reach it: a response is sized from the 0–2 draws that
//! fix its length ([`Profile::server_response_len`]).
//!
//! Connection ids are allocated at schedule-build time, before the
//! event loop runs, so the hybrid engine's different event stream
//! (fluid completions instead of per-segment deliveries) cannot
//! reorder any draw. This is the
//! property that keeps `exp-baserate` byte-identical between the
//! packet and hybrid engines and across `--jobs` counts.
//!
//! The arrival gap defaults to a deliberately non-round 3.141593 ms so
//! the arrival grid never collides with the round-millisecond latency
//! and timer offsets inside the simulator — events from different
//! flows land at distinct timestamps and the event order is forced by
//! time alone.

use crate::profiles::{conn_rng, conn_seed, Profile};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::{ConnId, TcpTuning};
use netsim::hash::HashSet;
use netsim::host::HostConfig;
use netsim::packet::{Ipv4, SocketAddr};
use netsim::sim::Simulator;
use netsim::time::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::apps::SsServerApp;
use shadowsocks::{ClientSession, Profile as SsProfile, ServerConfig, TargetAddr};
use sscrypto::method::Method;

/// Seed-stream tags so the independent RNG families never collide.
const STREAM_SCHEDULE: u64 = 0x5C4E_D01E;
const STREAM_GREETING: u64 = 0x6EE7_1239;
const STREAM_FIRST: u64 = 0xF125_7000;
const STREAM_RESPONSE: u64 = 0x2E59_0852;
const STREAM_TAIL: u64 = 0x7A11_B0D7;
const STREAM_SS: u64 = 0x55F1_0375;
const STREAM_WEB: u64 = 0x3EB0_0000;

/// Specification of one mix population.
#[derive(Clone, Debug)]
pub struct MixSpec {
    /// Number of background (non-Shadowsocks) flows.
    pub background_flows: usize,
    /// Base rate denominator: one Shadowsocks flow per `base_rate`
    /// background flows (`0` disables Shadowsocks entirely). When
    /// `base_rate > background_flows`, a single Shadowsocks flow is
    /// still scheduled so the ratio stays measurable.
    pub base_rate: u64,
    /// Relative weights of the six profiles from [`Profile::all`], in
    /// that order.
    pub weights: [u32; 6],
    /// Gap between successive flow arrivals. Deliberately non-round by
    /// default (see module docs).
    pub arrival_gap: Duration,
    /// Master seed for schedule and payload generation.
    pub seed: u64,
    /// Cipher method of the Shadowsocks flows.
    pub ss_method: Method,
    /// Server implementation profile of the Shadowsocks server.
    pub ss_profile: SsProfile,
}

impl Default for MixSpec {
    fn default() -> Self {
        MixSpec {
            background_flows: 10_000,
            base_rate: 1_000,
            // Roughly web-shaped: TLS dominates, HTTP next, then QUIC,
            // DNS-over-TCP, SSH.
            weights: [24, 22, 18, 6, 14, 16],
            arrival_gap: Duration::from_nanos(3_141_593),
            seed: 2020,
            ss_method: Method::Aes256Cfb,
            ss_profile: SsProfile::LIBEV_OLD,
        }
    }
}

/// What [`TrafficMix::install`] wired up, for experiment bookkeeping.
#[derive(Clone, Debug)]
pub struct MixHandles {
    /// The shared in-China client host.
    pub client_ip: Ipv4,
    /// One `(profile name, server endpoint)` per background profile,
    /// in [`Profile::all`] order.
    pub servers: Vec<(&'static str, SocketAddr)>,
    /// The Shadowsocks server endpoint.
    pub ss_server: SocketAddr,
    /// Scheduled background flows per profile, in
    /// [`Profile::all`] order.
    pub flows_per_profile: Vec<(&'static str, usize)>,
    /// Scheduled Shadowsocks flows.
    pub ss_flows: usize,
}

impl MixHandles {
    /// Total scheduled flows (background + Shadowsocks).
    pub fn total_flows(&self) -> usize {
        self.flows_per_profile.iter().map(|(_, n)| n).sum::<usize>() + self.ss_flows
    }
}

/// Namespace for installation.
pub struct TrafficMix;

impl TrafficMix {
    /// Install the mix population on `sim`: hosts, apps and the full
    /// arrival schedule. `sim.run()` afterwards drives every flow to
    /// completion.
    pub fn install(sim: &mut Simulator, spec: &MixSpec) -> MixHandles {
        let profiles = Profile::all();
        let client_ip = sim.add_host(HostConfig::china("mix-client"));

        // One server host per profile; ports protocol-typical.
        let ports: [u16; 6] = [80, 443, 443, 22, 53, 443];
        let mut servers = Vec::with_capacity(profiles.len());
        for (p, port) in profiles.iter().zip(ports) {
            let ip = sim.add_host(HostConfig::outside(p.name));
            let app = sim.add_app(Box::new(ProfileServer {
                profile: *p,
                seed: spec.seed,
                responded: HashSet::default(),
            }));
            sim.listen((ip, port), app);
            servers.push((p.name, (ip, port)));
        }

        // Shadowsocks server + the web host its relays target.
        let ss_ip = sim.add_host(HostConfig::outside("mix-ss-server"));
        let web_ip = sim.add_host(HostConfig::outside("mix-web"));
        let ss_config = ServerConfig::new(spec.ss_method, "mix-password", spec.ss_profile);
        let ss_app = sim.add_app(Box::new(SsServerApp::new(
            ss_config.clone(),
            ss_ip,
            spec.seed ^ 0x51,
        )));
        sim.listen((ss_ip, 8388), ss_app);
        let web_app = sim.add_app(Box::new(MixWeb { seed: spec.seed }));
        sim.listen((web_ip, 443), web_app);

        // Client apps: one per profile plus the Shadowsocks driver.
        let client_apps: Vec<_> = profiles
            .iter()
            .map(|p| {
                sim.add_app(Box::new(ProfileClient {
                    profile: *p,
                    seed: spec.seed,
                    pending_first: HashSet::default(),
                }))
            })
            .collect();
        let ss_driver = sim.add_app(Box::new(SsMixClient {
            config: ss_config,
            target: TargetAddr::Ipv4(web_ip.0, 443),
            payload_len: ss_first_payload_len(spec.ss_method),
            seed: spec.seed,
        }));

        // Deterministic schedule: a weighted profile choice per
        // background slot; Shadowsocks flows at evenly spaced interior
        // positions.
        let mut schedule_rng = StdRng::seed_from_u64(spec.seed ^ STREAM_SCHEDULE);
        let total_weight: u32 = spec.weights.iter().sum();
        assert!(total_weight > 0, "mix weights must not all be zero");
        let ss_flows = if spec.base_rate == 0 || spec.background_flows == 0 {
            0
        } else {
            ((spec.background_flows as u64) / spec.base_rate).max(1) as usize
        };
        let ss_positions: Vec<usize> = (0..ss_flows)
            .map(|k| (k + 1) * spec.background_flows / (ss_flows + 1))
            .collect();

        let mut flows_per_profile = vec![0usize; profiles.len()];
        let mut at = SimTime::ZERO;
        let mut next_ss = 0usize;
        for b in 0..spec.background_flows {
            while next_ss < ss_positions.len() && ss_positions[next_ss] == b {
                sim.connect_at(
                    at,
                    ss_driver,
                    client_ip,
                    (ss_ip, 8388),
                    TcpTuning::default(),
                );
                at += spec.arrival_gap;
                next_ss += 1;
            }
            let mut pick = schedule_rng.gen_range(0..total_weight);
            let mut idx = 0usize;
            for (i, w) in spec.weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= *w;
            }
            flows_per_profile[idx] += 1;
            sim.connect_at(
                at,
                client_apps[idx],
                client_ip,
                servers[idx].1,
                TcpTuning::default(),
            );
            at += spec.arrival_gap;
        }
        while next_ss < ss_positions.len() {
            sim.connect_at(
                at,
                ss_driver,
                client_ip,
                (ss_ip, 8388),
                TcpTuning::default(),
            );
            at += spec.arrival_gap;
            next_ss += 1;
        }

        MixHandles {
            client_ip,
            servers,
            ss_server: (ss_ip, 8388),
            flows_per_profile: profiles
                .iter()
                .zip(flows_per_profile)
                .map(|(p, n)| (p.name, n))
                .collect(),
            ss_flows,
        }
    }
}

/// An application payload length that puts the Shadowsocks first wire
/// packet in the GFW's preferred band with remainder 2 mod 16 — the
/// same arithmetic as the experiments' trigger driver, inlined here so
/// `trafficgen` stays independent of the experiments crate.
fn ss_first_payload_len(method: Method) -> usize {
    let overhead = match method.kind() {
        sscrypto::method::Kind::Stream => method.iv_len() + 7,
        sscrypto::method::Kind::Aead => method.iv_len() + (2 + 16) + 7 + 16 + (2 + 16) + 16,
    };
    let mut wire = 480;
    while wire % 16 != 2 {
        wire += 1;
    }
    wire - overhead
}

/// Linger after a bulk tail completes before the server FINs, so any
/// in-flight packet-phase segments land first.
const SERVER_LINGER: Duration = Duration::from_millis(200);

/// Client side of one background profile. All payload bytes come from
/// [`conn_rng`] streams (see module docs); the shared simulator RNG is
/// never touched. It closes when the server does and sets no timer:
/// every background flow ends with the server's FIN, because the mix
/// runs on unimpaired links, where no FIN is lost.
struct ProfileClient {
    profile: Profile,
    seed: u64,
    /// Server-first flows where our first payload is still owed
    /// (waiting for the server's greeting).
    pending_first: HashSet<ConnId>,
}

impl App for ProfileClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                if self.profile.server_first {
                    self.pending_first.insert(conn);
                } else {
                    let mut rng = conn_rng(self.seed ^ STREAM_FIRST, conn.0);
                    ctx.send(conn, self.profile.first_payload(&mut rng));
                }
            }
            AppEvent::Data { conn, .. } if self.pending_first.remove(&conn) => {
                let mut rng = conn_rng(self.seed ^ STREAM_FIRST, conn.0);
                ctx.send(conn, self.profile.first_payload(&mut rng));
            }
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => {
                self.pending_first.remove(&conn);
                ctx.fin(conn);
            }
            _ => {}
        }
    }
}

/// Server side of one background profile: greet (SSH), respond to the
/// client's first payload, stream the bulk tail, close. The greeting is
/// sent as bytes, because the tap scores it as the connection's first
/// payload; the response is a [`netsim::Payload::Synth`] message, built
/// only if something reads it. Greeting, response and tail size each
/// come from their own [`conn_rng`] stream.
struct ProfileServer {
    profile: Profile,
    seed: u64,
    /// Connections whose first client payload we already answered.
    responded: HashSet<ConnId>,
}

impl App for ProfileServer {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::ConnIncoming { conn, .. } if self.profile.server_first => {
                let mut rng = conn_rng(self.seed ^ STREAM_GREETING, conn.0);
                if let Some(greeting) = self.profile.server_greeting(&mut rng) {
                    ctx.send(conn, greeting);
                }
            }
            AppEvent::Data { conn, .. } if self.responded.insert(conn) => {
                // Nobody reads the response (the tap scored the
                // client's first payload already), so it goes out as a
                // description, sized from its length draws alone.
                let key = conn_seed(self.seed ^ STREAM_RESPONSE, conn.0);
                let len = self.profile.server_response_len(key);
                let synth = self.profile.response_synth();
                match u16::try_from(len) {
                    Ok(len) => ctx.send_synth(conn, synth, key, len),
                    Err(_) => ctx.send(conn, synth(key)),
                }
                let tail = self
                    .profile
                    .draw_tail(&mut conn_rng(self.seed ^ STREAM_TAIL, conn.0));
                if tail > 0 {
                    ctx.transfer(conn, tail);
                } else {
                    ctx.fin(conn);
                }
            }
            AppEvent::BulkDelivered { conn, .. } => {
                ctx.set_timer(SERVER_LINGER, conn.0);
            }
            AppEvent::Timer { token } => {
                let conn = ConnId(token);
                self.responded.remove(&conn);
                ctx.fin(conn);
            }
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => {
                self.responded.remove(&conn);
                ctx.fin(conn);
            }
            _ => {}
        }
    }
}

/// One-shot Shadowsocks client: fresh session per connection, one
/// attractive-length request, close on reply or timeout.
struct SsMixClient {
    config: ServerConfig,
    target: TargetAddr,
    payload_len: usize,
    seed: u64,
}

impl App for SsMixClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let mut rng = conn_rng(self.seed ^ STREAM_SS, conn.0);
                let mut session = ClientSession::new(&self.config, self.target.clone(), &mut rng);
                let mut body = vec![0u8; self.payload_len];
                rng.fill(&mut body[..]);
                let wire = session.send(&body);
                ctx.send(conn, wire);
                ctx.set_timer(Duration::from_secs(20), conn.0);
            }
            AppEvent::Timer { token } => ctx.fin(ConnId(token)),
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

/// The relay target behind the Shadowsocks server: answers any request
/// with a small page and closes — enough to complete the tunnel's
/// round trip without holding relay connections open.
struct MixWeb {
    seed: u64,
}

impl App for MixWeb {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Data { conn, .. } => {
                let mut rng = conn_rng(self.seed ^ STREAM_WEB, conn.0);
                let len = rng.gen_range(400..=1200);
                ctx.send(conn, crate::payload::http_response(len, &mut rng));
                ctx.fin(conn);
            }
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::capture::Capture;
    use netsim::hash::HashMap;
    use netsim::{EngineMode, Payload, SimConfig};

    fn run_mix(engine: EngineMode, spec: &MixSpec) -> (MixHandles, Vec<netsim::packet::Packet>) {
        let config = SimConfig {
            engine,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, 77);
        let cap = sim.add_capture(Capture::all());
        let handles = TrafficMix::install(&mut sim, spec);
        sim.run();
        let firsts: Vec<netsim::packet::Packet> = sim
            .capture(cap)
            .first_data_per_conn()
            .into_iter()
            .cloned()
            .collect();
        (handles, firsts)
    }

    #[test]
    fn schedule_counts_match_spec() {
        let spec = MixSpec {
            background_flows: 500,
            base_rate: 100,
            ..Default::default()
        };
        let (handles, _) = run_mix(EngineMode::Packet, &spec);
        let bg: usize = handles.flows_per_profile.iter().map(|(_, n)| n).sum();
        assert_eq!(bg, 500);
        assert_eq!(handles.ss_flows, 5);
        assert_eq!(handles.total_flows(), 505);
        // Every profile with nonzero weight appears at this size.
        for (name, n) in &handles.flows_per_profile {
            assert!(*n > 0, "profile {name} never scheduled");
        }
    }

    #[test]
    fn ss_flow_is_scheduled_even_below_base_rate() {
        let spec = MixSpec {
            background_flows: 50,
            base_rate: 10_000,
            ..Default::default()
        };
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let handles = TrafficMix::install(&mut sim, &spec);
        assert_eq!(handles.ss_flows, 1);
        let spec0 = MixSpec {
            background_flows: 50,
            base_rate: 0,
            ..Default::default()
        };
        let mut sim0 = Simulator::new(SimConfig::default(), 3);
        let h0 = TrafficMix::install(&mut sim0, &spec0);
        assert_eq!(h0.ss_flows, 0);
    }

    #[test]
    fn first_payloads_respect_profile_contracts() {
        let spec = MixSpec {
            background_flows: 300,
            base_rate: 0,
            ..Default::default()
        };
        let (handles, firsts) = run_mix(EngineMode::Packet, &spec);
        assert_eq!(firsts.len(), 300 + handles.ss_flows);
        let by_addr: netsim::hash::HashMap<_, _> = handles
            .servers
            .iter()
            .map(|(name, addr)| (*addr, *name))
            .collect();
        let profiles = Profile::all();
        for p in &firsts {
            // SSH flows: the first data packet is the *server* banner
            // (server → client), so look up both endpoints.
            let name = by_addr
                .get(&p.dst)
                .or_else(|| by_addr.get(&(p.src)))
                .expect("first payload to/from a known server");
            let profile = profiles.iter().find(|q| q.name == *name).unwrap();
            if profile.server_first {
                assert!(p.payload.bytes().starts_with(b"SSH-2.0-"));
            } else {
                let (lo, hi) = profile.len_support;
                assert!(
                    (lo..=hi).contains(&p.payload.len()),
                    "{name}: first payload {} outside [{lo}, {hi}]",
                    p.payload.len()
                );
            }
        }
    }

    /// Background responses go out as `Payload::Synth` descriptions.
    /// Read back through `bytes()`, every background server's data
    /// still starts with its greeting and the eagerly built response
    /// from the same `conn_rng` streams, under both engines.
    #[test]
    fn synthesized_responses_read_as_the_eager_bytes() {
        let spec = MixSpec {
            background_flows: 600,
            ..Default::default()
        };
        for engine in [EngineMode::Packet, EngineMode::Hybrid] {
            let config = SimConfig {
                engine,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(config, 77);
            let cap = sim.add_capture(Capture::all());
            let handles = TrafficMix::install(&mut sim, &spec);
            sim.run();
            let profile_at: HashMap<SocketAddr, Profile> = handles
                .servers
                .iter()
                .zip(Profile::all())
                .map(|((_, addr), p)| (*addr, p))
                .collect();
            // Per connection: (expected prefix, server data read so far).
            let mut conns: HashMap<ConnId, (Vec<u8>, Vec<u8>)> = HashMap::default();
            let mut synth_segments = 0usize;
            for pkt in sim.capture(cap).packets() {
                let Some(p) = profile_at.get(&pkt.src).filter(|_| pkt.has_payload()) else {
                    continue;
                };
                if matches!(pkt.payload, Payload::Synth { .. }) {
                    synth_segments += 1;
                }
                let (want, got) = conns.entry(pkt.conn).or_insert_with(|| {
                    let id = pkt.conn.0;
                    let mut want = p
                        .server_greeting(&mut conn_rng(spec.seed ^ STREAM_GREETING, id))
                        .unwrap_or_default();
                    want.extend(p.server_response(&mut conn_rng(spec.seed ^ STREAM_RESPONSE, id)));
                    (want, Vec::new())
                });
                if got.len() < want.len() {
                    got.extend_from_slice(&pkt.payload.bytes());
                }
            }
            assert!(conns.len() > 500, "{engine:?}: {} connections", conns.len());
            assert!(
                synth_segments >= conns.len(),
                "{engine:?}: responses sent eagerly"
            );
            for (conn, (want, got)) in &conns {
                assert!(
                    got.starts_with(want),
                    "{engine:?}: {conn:?} response differs"
                );
            }
        }
    }

    /// Each background connection's bulk tail is the size drawn from
    /// its own tail stream: under the packet engine, the furthest
    /// bulk-stream offset a background server sends equals
    /// `draw_tail(conn_rng(seed ^ STREAM_TAIL, id))`, and a
    /// connection drawing no tail sends no bulk segment.
    #[test]
    fn bulk_tails_come_from_the_tail_stream() {
        let spec = MixSpec {
            background_flows: 400,
            base_rate: 0,
            ..Default::default()
        };
        let config = SimConfig {
            engine: EngineMode::Packet,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, 77);
        let cap = sim.add_capture(Capture::all());
        let handles = TrafficMix::install(&mut sim, &spec);
        sim.run();
        let profile_at: HashMap<SocketAddr, Profile> = handles
            .servers
            .iter()
            .zip(Profile::all())
            .map(|((_, addr), p)| (*addr, p))
            .collect();
        // Per connection: its profile and the bulk bytes sent.
        let mut conns: HashMap<ConnId, (Profile, u64)> = HashMap::default();
        for pkt in sim.capture(cap).packets() {
            let Some(p) = profile_at.get(&pkt.src).filter(|_| pkt.has_payload()) else {
                continue;
            };
            let (_, bulk) = conns.entry(pkt.conn).or_insert((*p, 0));
            if let Payload::Bulk { offset, len, .. } = pkt.payload {
                *bulk = (*bulk).max(offset + u64::from(len));
            }
        }
        assert_eq!(conns.len(), 400);
        let mut with_tail = 0;
        for (conn, (p, bulk)) in &conns {
            let want = p.draw_tail(&mut conn_rng(spec.seed ^ STREAM_TAIL, conn.0));
            assert_eq!(*bulk, want, "{} {conn:?}", p.name);
            with_tail += usize::from(want > 0);
        }
        assert!(with_tail > 200, "{with_tail} tails");
    }

    #[test]
    fn mix_is_byte_identical_across_engines() {
        let spec = MixSpec {
            background_flows: 400,
            base_rate: 100,
            ..Default::default()
        };
        let (_, firsts_p) = run_mix(EngineMode::Packet, &spec);
        let (_, firsts_h) = run_mix(EngineMode::Hybrid, &spec);
        assert_eq!(firsts_p.len(), firsts_h.len());
        for (a, b) in firsts_p.iter().zip(&firsts_h) {
            assert_eq!(a.conn, b.conn);
            assert_eq!(a.payload, b.payload);
        }
    }
}
