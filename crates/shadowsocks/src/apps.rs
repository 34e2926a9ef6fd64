//! netsim adapters: the Shadowsocks server as a simulated application,
//! plus the sink/responding servers of the paper's random-data
//! experiments (§4.1).

use crate::config::ServerConfig;
use crate::server::{ServerAction, ServerConn};
use crate::TargetAddr;
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::{ConnId, TcpTuning};
use netsim::hash::HashMap;
use netsim::packet::Ipv4;
use netsim::time::Duration;
use rand::Rng;

const TOKEN_IDLE: u64 = 0;
const TOKEN_DNS_FAIL: u64 = 1;

/// A full Shadowsocks proxy server running on a netsim host.
///
/// Inbound connections feed the [`ServerConn`] engine; `ConnectTarget`
/// actions become outbound simulated connections; relayed data flows in
/// both directions. Idle connections are closed with FIN after the
/// configured timeout (libev's default 60 s — the paper notes the GFW's
/// probers always give up first, in under 10 s).
pub struct SsServerApp {
    engine: ServerConn,
    host: Ipv4,
    /// Hostname → address resolutions; unlisted names NXDOMAIN after
    /// `dns_delay`.
    pub resolver: HashMap<Vec<u8>, Ipv4>,
    dns_delay: Duration,
    idle_timeout: Duration,
    by_inbound: HashMap<ConnId, u64>,
    inbound_of_outbound: HashMap<ConnId, ConnId>,
    outbound_of_inbound: HashMap<ConnId, ConnId>,
    last_activity: HashMap<ConnId, netsim::time::SimTime>,
}

impl SsServerApp {
    /// Create the app for a server at `host`.
    pub fn new(config: ServerConfig, host: Ipv4, seed: u64) -> SsServerApp {
        let idle_timeout = Duration::from_secs(config.timeout_secs);
        SsServerApp {
            engine: ServerConn::new(config, seed),
            host,
            resolver: HashMap::default(),
            dns_delay: Duration::from_millis(100),
            idle_timeout,
            by_inbound: HashMap::default(),
            inbound_of_outbound: HashMap::default(),
            outbound_of_inbound: HashMap::default(),
            last_activity: HashMap::default(),
        }
    }

    fn token(conn: ConnId, kind: u64) -> u64 {
        conn.0 * 4 + kind
    }

    fn untoken(token: u64) -> (ConnId, u64) {
        (ConnId(token / 4), token % 4)
    }

    fn run_actions(&mut self, inbound: ConnId, actions: Vec<ServerAction>, ctx: &mut Ctx) {
        for action in actions {
            match action {
                ServerAction::ConnectTarget(target) => match target {
                    TargetAddr::Ipv4(ip, port) => {
                        let out = ctx.connect(self.host, (Ipv4(ip), port), TcpTuning::default());
                        self.inbound_of_outbound.insert(out, inbound);
                        self.outbound_of_inbound.insert(inbound, out);
                    }
                    TargetAddr::Hostname(name, port) => {
                        if let Some(&ip) = self.resolver.get(&name) {
                            let out = ctx.connect(self.host, (ip, port), TcpTuning::default());
                            self.inbound_of_outbound.insert(out, inbound);
                            self.outbound_of_inbound.insert(inbound, out);
                        } else {
                            // NXDOMAIN after the resolver round-trip.
                            ctx.set_timer(self.dns_delay, Self::token(inbound, TOKEN_DNS_FAIL));
                        }
                    }
                    TargetAddr::Ipv6(..) => {
                        // No v6 route in the simulation: immediate failure,
                        // same path as a failed resolve.
                        ctx.set_timer(self.dns_delay, Self::token(inbound, TOKEN_DNS_FAIL));
                    }
                },
                ServerAction::RelayToTarget(data) => {
                    if let Some(&out) = self.outbound_of_inbound.get(&inbound) {
                        ctx.send(out, data);
                    }
                }
                ServerAction::SendToClient(data) => {
                    ctx.send(inbound, data);
                }
                ServerAction::CloseRst => {
                    ctx.rst(inbound);
                    self.teardown(inbound, ctx, false);
                }
                ServerAction::CloseFin => {
                    ctx.fin(inbound);
                    self.teardown(inbound, ctx, false);
                }
            }
        }
    }

    fn teardown(&mut self, inbound: ConnId, ctx: &mut Ctx, close_wire: bool) {
        if let Some(id) = self.by_inbound.remove(&inbound) {
            self.engine.close_conn(id);
        }
        self.last_activity.remove(&inbound);
        if let Some(out) = self.outbound_of_inbound.remove(&inbound) {
            self.inbound_of_outbound.remove(&out);
            ctx.fin(out);
        }
        if close_wire {
            ctx.fin(inbound);
        }
    }
}

impl App for SsServerApp {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::ConnIncoming { conn, .. } => {
                let id = self.engine.open_conn();
                self.by_inbound.insert(conn, id);
                self.last_activity.insert(conn, ctx.now);
                ctx.set_timer(self.idle_timeout, Self::token(conn, TOKEN_IDLE));
            }
            AppEvent::Data { conn, data } => {
                if let Some(&id) = self.by_inbound.get(&conn) {
                    self.last_activity.insert(conn, ctx.now);
                    let actions = self.engine.on_data(id, &data.bytes());
                    self.run_actions(conn, actions, ctx);
                } else if let Some(&inbound) = self.inbound_of_outbound.get(&conn) {
                    if let Some(&id) = self.by_inbound.get(&inbound) {
                        self.last_activity.insert(inbound, ctx.now);
                        let actions = self.engine.on_target_data(id, &data.bytes());
                        self.run_actions(inbound, actions, ctx);
                    }
                }
            }
            AppEvent::Connected { conn } => {
                // An outbound target connection came up.
                if let Some(&inbound) = self.inbound_of_outbound.get(&conn) {
                    if let Some(&id) = self.by_inbound.get(&inbound) {
                        let actions = self.engine.on_target_connected(id);
                        self.run_actions(inbound, actions, ctx);
                    }
                }
            }
            AppEvent::ConnectFailed { conn, .. } => {
                if let Some(&inbound) = self.inbound_of_outbound.get(&conn) {
                    if let Some(&id) = self.by_inbound.get(&inbound) {
                        let actions = self.engine.on_target_failed(id);
                        self.run_actions(inbound, actions, ctx);
                    }
                }
            }
            AppEvent::PeerFin { conn } | AppEvent::PeerRst { conn } => {
                if self.by_inbound.contains_key(&conn) {
                    self.teardown(conn, ctx, true);
                } else if let Some(inbound) = self.inbound_of_outbound.remove(&conn) {
                    // Target side went away: close the client side too.
                    self.outbound_of_inbound.remove(&inbound);
                    if self.by_inbound.contains_key(&inbound) {
                        self.teardown(inbound, ctx, true);
                    }
                }
            }
            AppEvent::Timer { token } => {
                let (conn, kind) = Self::untoken(token);
                match kind {
                    TOKEN_IDLE => {
                        if let Some(&last) = self.last_activity.get(&conn) {
                            let idle = ctx.now.since(last);
                            if idle >= self.idle_timeout {
                                self.teardown(conn, ctx, true);
                            } else {
                                ctx.set_timer(
                                    self.idle_timeout - idle,
                                    Self::token(conn, TOKEN_IDLE),
                                );
                            }
                        }
                    }
                    TOKEN_DNS_FAIL => {
                        if let Some(&id) = self.by_inbound.get(&conn) {
                            let actions = self.engine.on_target_failed(id);
                            self.run_actions(conn, actions, ctx);
                        }
                    }
                    _ => {}
                }
            }
            AppEvent::BulkDelivered { .. } => {}
        }
    }
}

/// The sink server of Exp 1.a/2/3 (§4.1): accepts TCP connections, never
/// sends data, closes after 30 seconds.
pub struct SinkServerApp {
    /// How long to hold connections before closing.
    pub hold: Duration,
}

impl Default for SinkServerApp {
    fn default() -> Self {
        SinkServerApp {
            hold: Duration::from_secs(30),
        }
    }
}

impl App for SinkServerApp {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::ConnIncoming { conn, .. } => {
                ctx.set_timer(self.hold, conn.0);
            }
            AppEvent::Timer { token } => {
                ctx.fin(ConnId(token));
            }
            _ => {}
        }
    }
}

/// The responding server of Exp 1.b (§4.1): answers every peer —
/// including probers — with 1–1000 bytes of random data.
pub struct RespondingServerApp {
    /// Closes connections after this hold time, like the sink.
    pub hold: Duration,
}

impl Default for RespondingServerApp {
    fn default() -> Self {
        RespondingServerApp {
            hold: Duration::from_secs(30),
        }
    }
}

impl App for RespondingServerApp {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::ConnIncoming { conn, .. } => {
                ctx.set_timer(self.hold, conn.0);
            }
            AppEvent::Data { conn, .. } => {
                let n = ctx.rng.gen_range(1..=1000);
                let mut resp = vec![0u8; n];
                ctx.rng.fill(&mut resp[..]);
                ctx.send(conn, resp);
            }
            AppEvent::Timer { token } => {
                ctx.fin(ConnId(token));
            }
            _ => {}
        }
    }
}
