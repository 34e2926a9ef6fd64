//! netsim driver applications.
//!
//! [`RandomDataClient`] is the Table 4 client: one connection, one
//! payload of specified length/entropy, then silence until the peer or
//! a local timer closes. [`BulkTransferClient`] is the hybrid engine's
//! bulk-transfer client.

use crate::payload::entropy_payload;
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::ConnId;
use netsim::time::Duration;
use rand::Rng;
use std::cell::Cell;
use std::rc::Rc;

/// Sampling spec for one dimension: fixed or uniform range.
#[derive(Clone, Copy, Debug)]
pub enum Sample {
    /// Always this value.
    Fixed(f64),
    /// Uniform in `[lo, hi]`.
    Uniform(f64, f64),
}

impl Sample {
    /// Draw a value.
    ///
    /// A zero-width `Uniform(v, v)` returns `v` without touching the
    /// RNG (so it is interchangeable with `Fixed(v)` in deterministic
    /// schedules); an empty support (`lo > hi`) panics with a clear
    /// message instead of whatever the RNG backend does with an
    /// inverted range.
    pub fn draw(&self, rng: &mut impl Rng) -> f64 {
        match *self {
            Sample::Fixed(v) => v,
            Sample::Uniform(lo, hi) => {
                assert!(
                    lo <= hi,
                    "Sample::Uniform has empty support: lo {lo} > hi {hi}"
                );
                if lo == hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
        }
    }
}

/// The §4.1 random-data client: per connection, sends a single payload
/// with sampled length and entropy, then waits for `close_after` and
/// closes.
pub struct RandomDataClient {
    /// Payload length distribution (bytes).
    pub length: Sample,
    /// Per-byte entropy distribution (bits).
    pub entropy: Sample,
    /// How long to keep the connection before FIN.
    pub close_after: Duration,
}

impl RandomDataClient {
    /// Exp 1: length uniform \[1, 1000\], entropy > 7.
    pub fn exp1() -> RandomDataClient {
        RandomDataClient::new(Sample::Uniform(1.0, 1000.0), Sample::Uniform(7.0, 8.0))
    }

    /// Exp 2: length uniform \[1, 1000\], entropy < 2.
    pub fn exp2() -> RandomDataClient {
        RandomDataClient::new(Sample::Uniform(1.0, 1000.0), Sample::Uniform(0.0, 2.0))
    }

    /// Exp 3: length uniform \[1, 2000\], entropy \[0, 8\].
    pub fn exp3() -> RandomDataClient {
        RandomDataClient::new(Sample::Uniform(1.0, 2000.0), Sample::Uniform(0.0, 8.0))
    }

    /// Custom spec.
    pub fn new(length: Sample, entropy: Sample) -> RandomDataClient {
        RandomDataClient {
            length,
            entropy,
            close_after: Duration::from_secs(15),
        }
    }
}

impl App for RandomDataClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let len = self.length.draw(ctx.rng).round().max(1.0) as usize;
                let bits = self.entropy.draw(ctx.rng);
                let payload = entropy_payload(len, bits, ctx.rng);
                ctx.send(conn, payload);
                ctx.set_timer(self.close_after, conn.0);
            }
            AppEvent::Timer { token } => {
                ctx.fin(ConnId(token));
            }
            _ => {}
        }
    }
}

/// A bulk-transfer client for the hybrid engine: per connection, issues
/// one [`Ctx::transfer`] with a sampled size; once the simulator reports
/// [`AppEvent::BulkDelivered`], lingers briefly (so in-flight
/// packet-phase segments land at the peer) and closes with FIN.
///
/// Completion counters are shared `Rc<Cell<…>>` handles: clone them via
/// [`BulkTransferClient::counters`] before moving the app into the
/// simulator, and read totals after the run.
pub struct BulkTransferClient {
    /// Transfer size distribution (bytes).
    pub size: Sample,
    /// Hold after delivery before FIN. Must exceed the send pacing span
    /// of the largest transfer in pure packet mode (10 µs per segment),
    /// or the FIN overtakes in-flight data.
    pub linger: Duration,
    completed: Rc<Cell<u64>>,
    bytes: Rc<Cell<u64>>,
}

impl BulkTransferClient {
    /// Build with a size distribution and a 1 s post-delivery linger.
    pub fn new(size: Sample) -> BulkTransferClient {
        BulkTransferClient {
            size,
            linger: Duration::from_secs(1),
            completed: Rc::new(Cell::new(0)),
            bytes: Rc::new(Cell::new(0)),
        }
    }

    /// Shared (completed transfers, bytes delivered) counters.
    pub fn counters(&self) -> (Rc<Cell<u64>>, Rc<Cell<u64>>) {
        (Rc::clone(&self.completed), Rc::clone(&self.bytes))
    }
}

impl App for BulkTransferClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let bytes = self.size.draw(ctx.rng).round().max(1.0) as u64;
                ctx.transfer(conn, bytes);
            }
            AppEvent::BulkDelivered { conn, bytes } => {
                self.completed.set(self.completed.get() + 1);
                self.bytes.set(self.bytes.get() + bytes);
                ctx.set_timer(self.linger, conn.0);
            }
            AppEvent::Timer { token } => ctx.fin(ConnId(token)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::capture::Capture;
    use netsim::conn::TcpTuning;
    use netsim::host::HostConfig;
    use netsim::time::SimTime;
    use netsim::{SimConfig, Simulator};

    struct Sink;
    impl App for Sink {
        fn on_event(&mut self, _: AppEvent, _: &mut Ctx) {}
    }

    #[test]
    fn random_data_client_sends_one_payload_per_conn() {
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let server = sim.add_host(HostConfig::outside("sink"));
        let client = sim.add_host(HostConfig::china("client"));
        let cap = sim.add_capture(Capture::all());
        let sink = sim.add_app(Box::new(Sink));
        sim.listen((server, 9), sink);
        let app = sim.add_app(Box::new(RandomDataClient::exp1()));
        for i in 0..50 {
            sim.connect_at(
                SimTime::ZERO + Duration::from_secs(i),
                app,
                client,
                (server, 9),
                TcpTuning::default(),
            );
        }
        sim.run();
        let firsts = sim.capture(cap).first_data_per_conn();
        assert_eq!(firsts.len(), 50);
        for p in &firsts {
            assert!((1..=1000).contains(&p.payload.len()));
            // Entropy > 7 is only reachable for payloads ≥ 2^7 bytes.
            if p.payload.len() >= 1000 {
                assert!(analysis::shannon_entropy(&p.payload.bytes()) > 6.5);
            }
        }
        // The client closes every connection itself (sink never does).
        let client_fins = sim
            .capture(cap)
            .packets()
            .iter()
            .filter(|p| p.flags.fin && p.src.0 == client)
            .count();
        assert_eq!(client_fins, 50);
    }

    #[test]
    fn zero_width_uniform_is_fixed_and_skips_the_rng() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let before: u64 = rng.clone().gen();
        assert_eq!(Sample::Uniform(42.0, 42.0).draw(&mut rng), 42.0);
        // The RNG stream is untouched: the next draw matches the clone.
        assert_eq!(rng.gen::<u64>(), before);
        assert_eq!(Sample::Fixed(42.0).draw(&mut rng), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn inverted_uniform_panics_clearly() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Sample::Uniform(10.0, 1.0).draw(&mut rng);
    }

    #[test]
    fn exp_specs_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let e1 = RandomDataClient::exp1().entropy.draw(&mut rng);
        assert!(e1 >= 7.0);
        let e2 = RandomDataClient::exp2().entropy.draw(&mut rng);
        assert!(e2 < 2.0);
        let l3 = RandomDataClient::exp3().length.draw(&mut rng);
        assert!((1.0..=2000.0).contains(&l3));
    }

    fn bulk_world(engine: netsim::EngineMode) -> (u64, u64, netsim::sim::SimStats) {
        let config = SimConfig {
            engine,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, 11);
        let server = sim.add_host(HostConfig::outside("sink"));
        let client = sim.add_host(HostConfig::china("client"));
        let sink = sim.add_app(Box::new(Sink));
        sim.listen((server, 9), sink);
        let bulk = BulkTransferClient::new(Sample::Fixed(262_144.0));
        let (completed, bytes) = bulk.counters();
        let app = sim.add_app(Box::new(bulk));
        for i in 0..8 {
            sim.connect_at(
                SimTime::ZERO + Duration::from_millis(i),
                app,
                client,
                (server, 9),
                TcpTuning::default(),
            );
        }
        sim.run();
        (completed.get(), bytes.get(), sim.stats)
    }

    #[test]
    fn bulk_client_completes_under_both_engines() {
        let (done_p, bytes_p, stats_p) = bulk_world(netsim::EngineMode::Packet);
        let (done_h, bytes_h, stats_h) = bulk_world(netsim::EngineMode::Hybrid);
        assert_eq!(done_p, 8);
        assert_eq!(done_h, 8);
        assert_eq!(bytes_p, 8 * 262_144);
        assert_eq!(bytes_h, bytes_p);
        assert_eq!(stats_p.flows_promoted, 0);
        assert_eq!(stats_h.flows_promoted, 8);
        assert!(stats_h.fluid_bytes_modeled > 0);
        // The hybrid engine models the transfer tails without
        // per-segment events: far fewer packets on the wire.
        assert!(stats_h.packets_sent * 10 < stats_p.packets_sent);
    }
}
