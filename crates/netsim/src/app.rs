//! The application interface: event callbacks plus a command queue.
//!
//! Apps never hold references into the simulator. Each callback receives
//! a [`Ctx`] that records commands (send, close, connect, set timers…)
//! which the event loop applies after the callback returns — the pattern
//! that keeps a single-owner, deterministic core.

use crate::conn::{ConnId, TcpTuning};
use crate::packet::{Ipv4, Payload, SocketAddr};
use crate::sim::SimStats;
use crate::time::{Duration, SimTime};
use rand::rngs::StdRng;

/// Opaque application identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

/// Events delivered to an [`App`].
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// Server side: a handshake completed on a listening port.
    ConnIncoming {
        /// The new connection.
        conn: ConnId,
        /// The peer that connected.
        peer: SocketAddr,
        /// Local address the listener was bound to.
        local: SocketAddr,
    },
    /// Client side: our `connect` completed.
    Connected {
        /// The connection.
        conn: ConnId,
    },
    /// Client side: our `connect` failed.
    ConnectFailed {
        /// The connection that failed.
        conn: ConnId,
        /// True if refused (RST to our SYN); false if the SYN timed out.
        refused: bool,
    },
    /// Payload arrived (one TCP segment's worth).
    Data {
        /// Connection.
        conn: ConnId,
        /// Segment payload: the delivered packet's own payload, moved
        /// rather than copied. [`Payload::len`] is free; read the bytes
        /// with [`Payload::bytes`], which borrows app-sent bytes and
        /// synthesizes a bulk or [`Ctx::send_synth`] segment's on the
        /// call. Take `bytes().into_owned()` when an owned copy is
        /// needed (e.g. to echo it).
        data: Payload,
    },
    /// Peer sent FIN.
    PeerFin {
        /// Connection.
        conn: ConnId,
    },
    /// Peer sent RST.
    PeerRst {
        /// Connection.
        conn: ConnId,
    },
    /// A timer set through [`Ctx::set_timer`] fired.
    Timer {
        /// Token passed at registration.
        token: u64,
    },
    /// A bulk transfer issued through [`Ctx::transfer`] has been fully
    /// delivered to the peer (its last byte arrived — via packets, the
    /// fluid model, or both). Delivered to the *sending* app.
    BulkDelivered {
        /// Connection the transfer ran on.
        conn: ConnId,
        /// Total size of the transfer, as passed to [`Ctx::transfer`].
        bytes: u64,
    },
}

/// A simulated application (server, client, driver, controller…).
pub trait App {
    /// Handle one event. Use `ctx` to issue commands.
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx);
}

/// Commands issued by apps, applied by the simulator after the callback.
#[derive(Debug)]
pub enum Command {
    /// Send payload on a connection (segmented by the simulator).
    Send(ConnId, Vec<u8>),
    /// Send the `len`-byte message `synth(key)` on a connection,
    /// segmented like [`Command::Send`]; each segment is a
    /// [`Payload::Synth`] range, so no byte is built unless read.
    SendSynth {
        /// Connection.
        conn: ConnId,
        /// Regenerates the message from `key`.
        synth: fn(u64) -> Vec<u8>,
        /// What the message is a function of.
        key: u64,
        /// Message length in bytes: `synth(key).len()`.
        len: u16,
    },
    /// Close a connection with FIN.
    Fin(ConnId),
    /// Abort a connection with RST.
    Rst(ConnId),
    /// Open a new connection.
    Connect {
        /// Source host address (must be a registered host).
        from: Ipv4,
        /// Destination endpoint.
        to: SocketAddr,
        /// Per-connection tuning.
        tuning: TcpTuning,
        /// Pre-allocated id, returned by [`Ctx::connect`].
        conn: ConnId,
    },
    /// Arrange a [`AppEvent::Timer`] callback.
    SetTimer {
        /// When to fire.
        at: SimTime,
        /// Token to echo back.
        token: u64,
    },
    /// Send a bulk transfer of the given size: the simulator generates
    /// the payload deterministically and may promote the tail of the
    /// transfer to the fluid model (hybrid engine). Completion is
    /// reported back via [`AppEvent::BulkDelivered`].
    Transfer(ConnId, u64),
}

/// Per-callback context: the current time, a deterministic RNG, and the
/// command queue.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Simulator RNG (shared; draws are part of the deterministic
    /// schedule).
    pub rng: &'a mut StdRng,
    /// Simulator counters. Apps may bump domain counters here (e.g.
    /// [`SimStats::probes_launched`]); counters never feed back into
    /// the schedule, so determinism is unaffected.
    pub stats: &'a mut SimStats,
    pub(crate) app: AppId,
    pub(crate) commands: &'a mut Vec<(AppId, Command)>,
    pub(crate) next_conn_id: &'a mut u64,
}

impl<'a> Ctx<'a> {
    /// Send `data` on `conn`.
    pub fn send(&mut self, conn: ConnId, data: Vec<u8>) {
        self.commands.push((self.app, Command::Send(conn, data)));
    }

    /// Send the `len`-byte message `synth(key)` on `conn` without
    /// building it: the wire carries the same segments as
    /// `send(conn, synth(key))`, and each segment's bytes are
    /// regenerated only when something reads them. `synth` must be a
    /// pure function of `key`, and `len` must equal the length of its
    /// result.
    pub fn send_synth(&mut self, conn: ConnId, synth: fn(u64) -> Vec<u8>, key: u64, len: u16) {
        self.commands.push((
            self.app,
            Command::SendSynth {
                conn,
                synth,
                key,
                len,
            },
        ));
    }

    /// Close `conn` with a FIN.
    pub fn fin(&mut self, conn: ConnId) {
        self.commands.push((self.app, Command::Fin(conn)));
    }

    /// Abort `conn` with an RST.
    pub fn rst(&mut self, conn: ConnId) {
        self.commands.push((self.app, Command::Rst(conn)));
    }

    /// Open a connection from host `from` to `to`. The returned id is
    /// valid immediately; events about it arrive later.
    pub fn connect(&mut self, from: Ipv4, to: SocketAddr, tuning: TcpTuning) -> ConnId {
        let conn = ConnId(*self.next_conn_id);
        *self.next_conn_id += 1;
        self.commands.push((
            self.app,
            Command::Connect {
                from,
                to,
                tuning,
                conn,
            },
        ));
        conn
    }

    /// Send a bulk transfer of `bytes` on `conn`. Unlike [`Ctx::send`],
    /// the payload is generated by the simulator (deterministic,
    /// high-entropy) and the transfer's tail is eligible for fluid
    /// modeling; [`AppEvent::BulkDelivered`] fires when the last byte
    /// has been delivered. Intent-based bulk apps should prefer this
    /// over materializing megabytes through `send`.
    pub fn transfer(&mut self, conn: ConnId, bytes: u64) {
        self.commands
            .push((self.app, Command::Transfer(conn, bytes)));
    }

    /// Request a timer callback `after` from now, echoing `token`.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        self.commands.push((
            self.app,
            Command::SetTimer {
                at: self.now + after,
                token,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_queues_commands_and_allocates_conn_ids() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut commands = Vec::new();
        let mut next = 7u64;
        let mut stats = SimStats::default();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            rng: &mut rng,
            stats: &mut stats,
            app: AppId(3),
            commands: &mut commands,
            next_conn_id: &mut next,
        };
        let c1 = ctx.connect(
            Ipv4::new(1, 1, 1, 1),
            (Ipv4::new(2, 2, 2, 2), 80),
            TcpTuning::default(),
        );
        let c2 = ctx.connect(
            Ipv4::new(1, 1, 1, 1),
            (Ipv4::new(2, 2, 2, 2), 80),
            TcpTuning::default(),
        );
        assert_eq!(c1, ConnId(7));
        assert_eq!(c2, ConnId(8));
        ctx.send(c1, vec![1, 2, 3]);
        ctx.set_timer(Duration::from_secs(1), 99);
        assert_eq!(commands.len(), 4);
        assert!(matches!(commands[2].1, Command::Send(ConnId(7), _)));
        assert!(matches!(commands[3].1, Command::SetTimer { token: 99, .. }));
    }
}
