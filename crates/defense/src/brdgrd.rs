//! brdgrd (bridge guard) — §7.1's traffic-analysis mitigation.
//!
//! Originally built to disrupt the GFW's Tor bridge detection by
//! forcing TCP reassembly, repurposed by the paper to shape client
//! packet sizes: the server announces a tiny receive window during the
//! handshake, so the client's first flight arrives as several small
//! segments and the GFW's first-packet length feature never sees a
//! Shadowsocks-shaped packet.
//!
//! The paper's caveats (§7.1) are encoded here too: the window is drawn
//! from a range (itself fingerprintable), it is "uncommonly small,
//! unlike any real TCP implementation", and windows smaller than a
//! complete target specification break some server implementations.

use netsim::host::WindowShaper;
use netsim::packet::Ipv4;
use netsim::sim::Simulator;

/// A brdgrd instance guarding one server host.
#[derive(Clone, Copy, Debug)]
pub struct Brdgrd {
    /// Window sizes are drawn uniformly from this inclusive range.
    /// brdgrd's default rewrites to a few tens of bytes.
    pub window_range: (u16, u16),
    /// Stop clamping after this many client bytes (brdgrd only rewrites
    /// early in the connection).
    pub restore_after_bytes: usize,
}

impl Default for Brdgrd {
    fn default() -> Self {
        Brdgrd {
            window_range: (20, 60),
            restore_after_bytes: 1_000,
        }
    }
}

impl Brdgrd {
    /// Enable on a server host.
    pub fn enable(&self, sim: &mut Simulator, server: Ipv4) {
        sim.set_window_shaper(
            server,
            Some(WindowShaper {
                window_range: self.window_range,
                restore_after_bytes: self.restore_after_bytes,
            }),
        );
    }

    /// Disable on a server host.
    pub fn disable(sim: &mut Simulator, server: Ipv4) {
        sim.set_window_shaper(server, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::app::{App, AppEvent, Ctx};
    use netsim::capture::Capture;
    use netsim::conn::TcpTuning;
    use netsim::host::HostConfig;
    use netsim::time::{Duration, SimTime};
    use netsim::SimConfig;

    struct Quiet;
    impl App for Quiet {
        fn on_event(&mut self, _: AppEvent, _: &mut Ctx) {}
    }

    struct OneShot;
    impl App for OneShot {
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
            if let AppEvent::Connected { conn } = ev {
                ctx.send(conn, vec![0xAB; 400]);
                ctx.set_timer(Duration::from_secs(5), conn.0);
            } else if let AppEvent::Timer { token } = ev {
                ctx.fin(netsim::conn::ConnId(token));
            }
        }
    }

    #[test]
    fn enable_disable_roundtrip_shapes_segments() {
        let mut sim = Simulator::new(SimConfig::default(), 77);
        let server = sim.add_host(HostConfig::outside("server"));
        let client = sim.add_host(HostConfig::china("client"));
        let cap = sim.add_capture(Capture::all());
        let quiet = sim.add_app(Box::new(Quiet));
        sim.listen((server, 8388), quiet);
        let app = sim.add_app(Box::new(OneShot));

        // Shaped connection.
        Brdgrd::default().enable(&mut sim, server);
        sim.connect_at(
            SimTime::ZERO,
            app,
            client,
            (server, 8388),
            TcpTuning::default(),
        );
        sim.run();
        let shaped_first = sim.capture(cap).first_data_per_conn()[0].payload.len();
        assert!(shaped_first <= 60, "first segment {shaped_first}");

        // Unshaped connection.
        sim.capture_mut(cap).clear();
        Brdgrd::disable(&mut sim, server);
        let t = sim.now();
        sim.connect_at(
            t + Duration::from_secs(1),
            app,
            client,
            (server, 8388),
            TcpTuning::default(),
        );
        sim.run();
        let plain_first = sim.capture(cap).first_data_per_conn()[0].payload.len();
        assert_eq!(plain_first, 400);
    }
}
