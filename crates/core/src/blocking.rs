//! The blocking module (§6).
//!
//! Confirmed servers are null-routed in the server→client direction
//! only, either by (IP, port) or by whole IP. Two behaviours from the
//! paper's §6 are modelled explicitly:
//!
//! * **The human factor.** Few of the paper's heavily-probed servers
//!   were ever blocked, and blocking concentrates around politically
//!   sensitive dates. A `sensitivity` knob gates verdict→block
//!   decisions; 1.0 models a sensitive period, small values model
//!   ordinary operation.
//! * **Lazy unblocking.** Unlike Tor (re-checked every 12 h), blocked
//!   Shadowsocks servers are not re-probed; rules simply expire after
//!   a configurable duration (one server was observed unblocked after
//!   more than a week).

use netsim::packet::{Ipv4, Packet, SocketAddr};
use netsim::time::{Duration, SimTime};
use rand::Rng;

/// What a block rule covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockScope {
    /// Drop server→client packets from this (address, port).
    Port(SocketAddr),
    /// Drop server→client packets from this address entirely.
    Ip(Ipv4),
}

/// One active rule.
#[derive(Clone, Copy, Debug)]
pub struct BlockRule {
    /// What is blocked.
    pub scope: BlockScope,
    /// When the rule was installed.
    pub since: SimTime,
    /// When the rule lapses (lazy unblocking).
    pub until: SimTime,
}

/// Blocking policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BlockingConfig {
    /// Probability that a confirmed server is actually blocked — §6's
    /// human factor.
    pub sensitivity: f64,
    /// Probability a block covers the whole IP rather than one port.
    pub block_ip_frac: f64,
    /// Minimum block duration.
    pub min_duration: Duration,
    /// Maximum block duration.
    pub max_duration: Duration,
    /// Minimum classifier confidence required before considering a
    /// block.
    pub min_confidence: f64,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            sensitivity: 0.05,
            block_ip_frac: 0.3,
            min_duration: Duration::from_hours(24 * 7),
            max_duration: Duration::from_hours(24 * 21),
            min_confidence: 0.75,
        }
    }
}

/// The blocking module: rule set + decision logic.
pub struct BlockingModule {
    /// Active configuration.
    pub config: BlockingConfig,
    rules: Vec<BlockRule>,
    /// Verdicts that were eligible but passed over by the sensitivity
    /// gate (observable for experiments).
    pub suppressed: u64,
}

impl BlockingModule {
    /// Create with the given policy.
    pub fn new(config: BlockingConfig) -> BlockingModule {
        BlockingModule {
            config,
            rules: Vec::new(),
            suppressed: 0,
        }
    }

    /// Consider blocking `server` given a classifier confidence.
    /// Returns the installed rule, if any.
    pub fn consider(
        &mut self,
        now: SimTime,
        server: SocketAddr,
        confidence: f64,
        rng: &mut impl Rng,
    ) -> Option<BlockRule> {
        if confidence < self.config.min_confidence {
            return None;
        }
        if self.is_blocked_addr(now, server) {
            return None;
        }
        if !rng.gen_bool(self.config.sensitivity) {
            self.suppressed += 1;
            return None;
        }
        let scope = if rng.gen_bool(self.config.block_ip_frac) {
            BlockScope::Ip(server.0)
        } else {
            BlockScope::Port(server)
        };
        let span_ns = rng
            .gen_range(self.config.min_duration.as_nanos()..=self.config.max_duration.as_nanos());
        let rule = BlockRule {
            scope,
            since: now,
            until: now + Duration::from_nanos(span_ns),
        };
        self.rules.push(rule);
        Some(rule)
    }

    /// True if packets *from* `addr` are currently dropped.
    fn is_blocked_addr(&self, now: SimTime, addr: SocketAddr) -> bool {
        self.rules.iter().any(|r| {
            now < r.until
                && match r.scope {
                    BlockScope::Port(sa) => sa == addr,
                    BlockScope::Ip(ip) => ip == addr.0,
                }
        })
    }

    /// The drop decision for a packet: only the server→client direction
    /// is null-routed, i.e. we match on the packet's *source*.
    pub fn should_drop(&self, now: SimTime, pkt: &Packet) -> bool {
        self.is_blocked_addr(now, pkt.src)
    }

    /// All rules ever installed.
    pub fn all_rules(&self) -> &[BlockRule] {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::conn::ConnId;
    use netsim::packet::{Payload, TcpFlags};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pkt(src: SocketAddr, dst: SocketAddr) -> Packet {
        Packet {
            sent_at: SimTime::ZERO,
            src,
            dst,
            flags: TcpFlags::PSH_ACK,
            seq: 0,
            ack: 0,
            window: 65535,
            ttl: 64,
            ip_id: 0,
            tsval: Some(0),
            payload: Payload::Bytes(Bytes::from_static(b"x")),
            conn: ConnId(0),
            retx: false,
        }
    }

    fn server() -> SocketAddr {
        (Ipv4::new(172, 0, 0, 1), 8388)
    }

    fn client() -> SocketAddr {
        (Ipv4::new(110, 0, 0, 1), 40000)
    }

    fn always() -> BlockingConfig {
        BlockingConfig {
            sensitivity: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn blocking_is_unidirectional() {
        let mut m = BlockingModule::new(BlockingConfig {
            block_ip_frac: 0.0,
            ..always()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let rule = m.consider(SimTime::ZERO, server(), 0.9, &mut rng).unwrap();
        assert_eq!(rule.scope, BlockScope::Port(server()));
        // Server→client dropped; client→server passes (§6).
        assert!(m.should_drop(SimTime::ZERO, &pkt(server(), client())));
        assert!(!m.should_drop(SimTime::ZERO, &pkt(client(), server())));
    }

    #[test]
    fn port_block_spares_other_ports() {
        let mut m = BlockingModule::new(BlockingConfig {
            block_ip_frac: 0.0,
            ..always()
        });
        let mut rng = StdRng::seed_from_u64(2);
        m.consider(SimTime::ZERO, server(), 0.9, &mut rng).unwrap();
        let other_port = (server().0, 443);
        assert!(!m.should_drop(SimTime::ZERO, &pkt(other_port, client())));
    }

    #[test]
    fn ip_block_covers_all_ports() {
        let mut m = BlockingModule::new(BlockingConfig {
            block_ip_frac: 1.0,
            ..always()
        });
        let mut rng = StdRng::seed_from_u64(3);
        m.consider(SimTime::ZERO, server(), 0.9, &mut rng).unwrap();
        assert!(m.should_drop(SimTime::ZERO, &pkt((server().0, 443), client())));
    }

    #[test]
    fn rules_lapse_without_recheck() {
        let mut m = BlockingModule::new(always());
        let mut rng = StdRng::seed_from_u64(4);
        let rule = m.consider(SimTime::ZERO, server(), 0.9, &mut rng).unwrap();
        assert!(rule.until.since(rule.since) >= Duration::from_hours(24 * 7));
        let after = rule.until + Duration::from_secs(1);
        assert!(!m.is_blocked_addr(after, server()));
        assert_eq!(m.all_rules().len(), 1);
    }

    #[test]
    fn sensitivity_gate_suppresses_blocks() {
        let mut m = BlockingModule::new(BlockingConfig {
            sensitivity: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        assert!(m
            .consider(SimTime::ZERO, server(), 0.99, &mut rng)
            .is_none());
        assert_eq!(m.suppressed, 1);
    }

    #[test]
    fn low_confidence_never_blocks() {
        let mut m = BlockingModule::new(always());
        let mut rng = StdRng::seed_from_u64(6);
        assert!(m.consider(SimTime::ZERO, server(), 0.3, &mut rng).is_none());
        assert_eq!(m.suppressed, 0, "confidence gate is not the human gate");
    }

    #[test]
    fn no_duplicate_rules_for_blocked_server() {
        let mut m = BlockingModule::new(always());
        let mut rng = StdRng::seed_from_u64(7);
        assert!(m.consider(SimTime::ZERO, server(), 0.9, &mut rng).is_some());
        assert!(m.consider(SimTime::ZERO, server(), 0.9, &mut rng).is_none());
        assert_eq!(m.all_rules().len(), 1);
    }
}
