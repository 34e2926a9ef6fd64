//! The probing oracle: wraps a [`ServerConn`] engine and answers "what
//! does this server do when sent these bytes?" in the paper's reaction
//! taxonomy.

use gfw_core::probe::Reaction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::addr::TargetAddr;
use shadowsocks::server::{ServerAction, ServerConn};
use shadowsocks::ServerConfig;

/// Fate model for the server's *outbound* connections (what happens
/// when a probe decrypts to a plausible target): mirrors
/// `netsim::internet::InternetModel` for the engine-only path.
#[derive(Clone, Copy, Debug)]
pub struct TargetModel {
    /// Probability a random IPv4 target refuses quickly (server then
    /// closes the probe connection with FIN/ACK); otherwise the target
    /// black-holes and the prober times out first.
    pub p_refused: f64,
}

impl Default for TargetModel {
    fn default() -> Self {
        TargetModel { p_refused: 0.5 }
    }
}

impl TargetModel {
    /// Resolve a connect attempt into the prober-visible reaction.
    pub fn resolve(&self, target: &TargetAddr, rng: &mut impl Rng) -> Reaction {
        match target {
            // Garbage hostnames NXDOMAIN fast → server closes (FIN).
            TargetAddr::Hostname(..) => Reaction::FinAck,
            // No v6 route → fast failure → FIN.
            TargetAddr::Ipv6(..) => Reaction::FinAck,
            TargetAddr::Ipv4(..) => {
                if rng.gen_bool(self.p_refused) {
                    Reaction::FinAck
                } else {
                    Reaction::Timeout
                }
            }
        }
    }
}

/// A probing oracle over one server configuration.
pub struct EngineOracle {
    /// Server configuration under test.
    pub config: ServerConfig,
    /// Outbound-connection fate model.
    pub target: TargetModel,
    rng: StdRng,
    shared: ServerConn,
    fresh_seed: u64,
}

impl EngineOracle {
    /// Create an oracle for `config`.
    pub fn new(config: ServerConfig, seed: u64) -> EngineOracle {
        EngineOracle {
            shared: ServerConn::new(config.clone(), seed),
            config,
            target: TargetModel::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x0AC1E),
            fresh_seed: seed,
        }
    }

    fn classify(&mut self, server: &mut ServerConn, conn: u64, payload: &[u8]) -> Reaction {
        // The first action decides the prober-visible fate; anything the
        // engine queues after it happens on an already-closed socket.
        if let Some(action) = server.on_data(conn, payload).into_iter().next() {
            match action {
                ServerAction::CloseRst => return Reaction::Rst,
                ServerAction::CloseFin => return Reaction::FinAck,
                ServerAction::SendToClient(_) | ServerAction::RelayToTarget(_) => {
                    return Reaction::Data
                }
                ServerAction::ConnectTarget(target) => {
                    let fate = self.target.resolve(&target, &mut self.rng);
                    if fate == Reaction::FinAck {
                        // The engine reacts to the failed connect.
                        for a in server.on_target_failed(conn) {
                            if a == ServerAction::CloseFin {
                                return Reaction::FinAck;
                            }
                            if a == ServerAction::CloseRst {
                                return Reaction::Rst;
                            }
                        }
                        return Reaction::FinAck;
                    }
                    // Target accepted or black-holed: for a *replayed
                    // genuine payload* the target answers, the server
                    // proxies → Data. For random junk the SYN hangs and
                    // the prober times out. Heuristic: a completed
                    // connect on random bytes still means a hang.
                    return fate;
                }
            }
        }
        Reaction::Timeout
    }

    /// Probe a **fresh** server instance (replay filter state does not
    /// carry over). This is how length-sweep batteries are run.
    pub fn probe_fresh(&mut self, payload: &[u8]) -> Reaction {
        self.fresh_seed = self.fresh_seed.wrapping_add(1);
        let mut server = ServerConn::new(self.config.clone(), self.fresh_seed);
        let conn = server.open_conn();
        self.classify(&mut server, conn, payload)
    }

    /// Probe the **shared** long-lived server instance (replay filter
    /// state accumulates) — needed for replay-detection batteries
    /// (§5.3).
    pub fn probe_shared(&mut self, payload: &[u8]) -> Reaction {
        let conn = self.shared.open_conn();
        let mut shared =
            std::mem::replace(&mut self.shared, ServerConn::new(self.config.clone(), 0));
        let r = self.classify(&mut shared, conn, payload);
        shared.close_conn(conn);
        self.shared = shared;
        r
    }

    /// Replay of a *genuine* payload against the shared server. If the
    /// payload decrypts and the target answers, the server proxies data
    /// back (Table 5's "D").
    pub fn probe_shared_replay(&mut self, payload: &[u8]) -> Reaction {
        let conn = self.shared.open_conn();
        let mut shared =
            std::mem::replace(&mut self.shared, ServerConn::new(self.config.clone(), 0));
        let mut reaction = None;
        for action in shared.on_data(conn, payload) {
            match action {
                ServerAction::CloseRst => reaction = Some(Reaction::Rst),
                ServerAction::CloseFin => reaction = Some(Reaction::FinAck),
                ServerAction::SendToClient(_) | ServerAction::RelayToTarget(_) => {
                    reaction = Some(Reaction::Data)
                }
                ServerAction::ConnectTarget(_) => {
                    // A replayed genuine payload names a real, reachable
                    // target: the connect succeeds and the pending data
                    // flushes to it — observable as proxied data.
                    let acts = shared.on_target_connected(conn);
                    if acts
                        .iter()
                        .any(|a| matches!(a, ServerAction::RelayToTarget(_)))
                    {
                        reaction = Some(Reaction::Data);
                    } else {
                        reaction = Some(Reaction::Timeout);
                    }
                }
            }
            if reaction.is_some() {
                break;
            }
        }
        shared.close_conn(conn);
        self.shared = shared;
        reaction.unwrap_or(Reaction::Timeout)
    }

    /// Random bytes of the given length.
    pub fn random_payload(&mut self, len: usize) -> Vec<u8> {
        let mut p = vec![0u8; len];
        self.rng.fill(&mut p[..]);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowsocks::Profile;
    use sscrypto::method::Method;

    #[test]
    fn fresh_probe_reactions_match_profiles() {
        // Old libev AEAD: silent below threshold, RST above.
        let config = ServerConfig::new(Method::Aes128Gcm, "pw", Profile::LIBEV_OLD);
        let mut oracle = EngineOracle::new(config, 1);
        let short = oracle.random_payload(40);
        assert_eq!(oracle.probe_fresh(&short), Reaction::Timeout);
        let long = oracle.random_payload(221);
        assert_eq!(oracle.probe_fresh(&long), Reaction::Rst);
    }

    #[test]
    fn shared_probe_accumulates_filter_state() {
        let config = ServerConfig::new(Method::Aes256Gcm, "pw", Profile::LIBEV_OLD);
        let mut oracle = EngineOracle::new(config.clone(), 2);
        // A genuine payload proxies on the first replay? No — even the
        // FIRST presentation of a genuine payload to the shared server
        // inserts its salt; a second presentation trips the filter.
        let mut rng = StdRng::seed_from_u64(9);
        let mut client =
            shadowsocks::ClientSession::new(&config, TargetAddr::Ipv4([10, 0, 0, 1], 80), &mut rng);
        let wire = client.send(b"hello");
        assert_eq!(oracle.probe_shared_replay(&wire), Reaction::Data);
        assert_eq!(oracle.probe_shared_replay(&wire), Reaction::Rst);
    }

    #[test]
    fn target_model_hostname_fails_fast() {
        let tm = TargetModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            tm.resolve(&TargetAddr::Hostname(b"junk".to_vec(), 80), &mut rng),
            Reaction::FinAck
        );
    }
}
