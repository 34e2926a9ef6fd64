//! Implementation inference from probe reactions (§5.2.2).
//!
//! "An attacker can identify a Shadowsocks server with high confidence
//! using statistical analysis of its reactions to random probes" — and
//! more: the IV/salt length, sometimes the exact cipher, whether the
//! address type is masked, whether a replay filter is present, and an
//! implementation+version guess. This module runs those batteries
//! against an [`EngineOracle`].

use crate::matrix::reaction_matrix;
use crate::oracle::EngineOracle;
use gfw_core::probe::Reaction;
use sscrypto::method::Kind;

/// What the attacker managed to learn.
#[derive(Clone, Debug, PartialEq)]
pub struct Inference {
    /// Did the reaction profile match any Shadowsocks signature?
    pub shadowsocks_like: bool,
    /// Stream vs AEAD construction, when determinable.
    pub construction: Option<Kind>,
    /// Inferred IV (stream) or salt (AEAD) length in bytes.
    pub nonce_len: Option<usize>,
    /// Whether the server masks the address-type byte (3/16 vs 3/256
    /// acceptance).
    pub masks_addr_type: Option<bool>,
    /// Cipher identification when the nonce length pins it down (a
    /// 12-byte stream IV is uniquely `chacha20-ietf`).
    pub cipher_hint: Option<&'static str>,
    /// Replay filter detected? `None` when the test does not apply.
    pub replay_filter: Option<bool>,
    /// Human-readable implementation guess.
    pub implementation_guess: &'static str,
}

impl Default for Inference {
    fn default() -> Self {
        Inference {
            shadowsocks_like: false,
            construction: None,
            nonce_len: None,
            masks_addr_type: None,
            cipher_hint: None,
            replay_filter: None,
            implementation_guess: "unknown / probe-resistant",
        }
    }
}

fn stream_cipher_hint(iv_len: usize) -> Option<&'static str> {
    match iv_len {
        // §5.2.2: chacha20-ietf is the only stream cipher with a
        // 12-byte IV.
        12 => Some("chacha20-ietf"),
        8 => Some("chacha20 (legacy) / 8-byte-IV class"),
        16 => Some("aes-*-ctr / aes-*-cfb / rc4-md5 class"),
        _ => None,
    }
}

fn aead_cipher_hint(salt_len: usize) -> Option<&'static str> {
    match salt_len {
        16 => Some("aes-128-gcm"),
        24 => Some("aes-192-gcm"),
        32 => Some("aes-256-gcm / chacha20-ietf-poly1305"),
        _ => None,
    }
}

/// Run the full inference battery. `samples` probes per length (the
/// paper notes the GFW spreads such batteries over hours to stay
/// unobtrusive; we have no such constraint).
pub fn infer(oracle: &mut EngineOracle, samples: usize) -> Inference {
    // Battery 1: length sweep 1..=70 plus the NR2 length.
    let lengths: Vec<usize> = (1..=70).chain([221usize]).collect();
    let rows = reaction_matrix(&oracle.config, lengths, samples, 0x1F2E3D);
    let mut out = Inference::default();

    // First length with any non-timeout reaction.
    let first_reactive = rows
        .iter()
        .find(|r| r.frac(Reaction::Timeout) < 1.0)
        .map(|r| r.len);
    let Some(l0) = first_reactive else {
        // Everything times out: post-fix implementations are built to
        // land here (indistinguishable from a closed-mouth service).
        return out;
    };

    let long = rows.iter().find(|r| r.len == 221).unwrap();
    let long_rst = long.frac(Reaction::Rst);

    // OutlineVPN v1.0.6: FIN at exactly 50, RST above.
    let fin50 = rows
        .iter()
        .find(|r| r.len == 50)
        .map(|r| r.frac(Reaction::FinAck))
        .unwrap_or(0.0);
    if fin50 > 0.9 && long_rst > 0.9 && l0 == 50 {
        out.shadowsocks_like = true;
        out.construction = Some(Kind::Aead);
        out.nonce_len = Some(32);
        out.cipher_hint = Some("chacha20-ietf-poly1305");
        out.replay_filter = Some(false);
        out.implementation_guess = "OutlineVPN v1.0.6";
        return out;
    }

    if l0 >= 51 && long_rst > 0.97 {
        // AEAD threshold behaviour: silent until salt+35, then
        // deterministic RST (old libev).
        out.shadowsocks_like = true;
        out.construction = Some(Kind::Aead);
        let salt = l0 - 35;
        out.nonce_len = Some(salt);
        out.cipher_hint = aead_cipher_hint(salt);
        out.implementation_guess = "ss-libev v3.0.8-v3.2.5 (AEAD)";
        return out;
    }

    if l0 <= 17 {
        // Stream construction: RSTs begin right after the IV.
        let iv = l0 - 1;
        out.construction = Some(Kind::Stream);
        out.nonce_len = Some(iv);
        out.cipher_hint = stream_cipher_hint(iv);
        // Every post-IV length exercises the same address-type check,
        // so the RST-rate statistic can pool the whole sweep instead of
        // relying on the single 221-byte row. Pooling multiplies the
        // observation count by ~50 and makes the 13/16-vs-253/256
        // discrimination below robust at small per-length batteries.
        let (rst_pooled, total_pooled) =
            rows.iter()
                .filter(|r| r.len > l0)
                .fold((0usize, 0usize), |(rst, total), r| {
                    (
                        rst + r.counts.get(&Reaction::Rst).copied().unwrap_or(0),
                        total + r.total(),
                    )
                });
        let long_rst = if total_pooled == 0 {
            long_rst
        } else {
            rst_pooled as f64 / total_pooled as f64
        };
        if long_rst > 0.97 {
            out.shadowsocks_like = true;
            out.masks_addr_type = Some(false);
            out.implementation_guess = "unmasked stream (shadowsocks-python / ShadowsocksR class)";
            // The repeat-probe filter test is uninformative at a 253/256
            // baseline RST rate.
            out.replay_filter = None;
            return out;
        }
        if (long_rst - 13.0 / 16.0).abs() < 0.10 {
            out.shadowsocks_like = true;
            out.masks_addr_type = Some(true);
            out.implementation_guess = "ss-libev v3.0.8-v3.2.5 (stream)";
            out.replay_filter = Some(detect_replay_filter(oracle));
            return out;
        }
    }

    out
}

/// §5.3's repeated-probe test: send the same random probe to the same
/// server twice. A replay filter makes the second always RST; without
/// one, the second behaves statistically like the first. Only
/// meaningful when the baseline RST rate is well below 1 (the masked
/// stream case, 13/16).
fn detect_replay_filter(oracle: &mut EngineOracle) -> bool {
    let mut always_rst = true;
    let mut informative = 0;
    while informative < 20 {
        let probe = oracle.random_payload(221);
        let first = oracle.probe_shared(&probe);
        if first == Reaction::Rst {
            continue; // invalid-type outcome; repeating teaches nothing
        }
        informative += 1;
        let second = oracle.probe_shared(&probe);
        if second != Reaction::Rst {
            always_rst = false;
            break;
        }
    }
    always_rst
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowsocks::{Profile, ServerConfig};
    use sscrypto::method::Method;

    fn run(method: Method, profile: Profile) -> Inference {
        let config = ServerConfig::new(method, "pw", profile);
        let mut oracle = EngineOracle::new(config, 7);
        infer(&mut oracle, 60)
    }

    #[test]
    fn identifies_old_libev_stream_and_iv() {
        for (method, iv) in [
            (Method::ChaCha20, 8),
            (Method::ChaCha20Ietf, 12),
            (Method::Aes256Cfb, 16),
        ] {
            let inf = run(method, Profile::LIBEV_OLD);
            assert!(inf.shadowsocks_like, "{}", method.name());
            assert_eq!(inf.construction, Some(Kind::Stream));
            assert_eq!(inf.nonce_len, Some(iv), "{}", method.name());
            assert_eq!(inf.masks_addr_type, Some(true));
            assert_eq!(inf.replay_filter, Some(true));
            if iv == 12 {
                assert_eq!(inf.cipher_hint, Some("chacha20-ietf"));
            }
        }
    }

    #[test]
    fn identifies_old_libev_aead_and_salt() {
        for (method, salt) in [
            (Method::Aes128Gcm, 16),
            (Method::Aes192Gcm, 24),
            (Method::Aes256Gcm, 32),
        ] {
            let inf = run(method, Profile::LIBEV_OLD);
            assert!(inf.shadowsocks_like, "{}", method.name());
            assert_eq!(inf.construction, Some(Kind::Aead));
            assert_eq!(inf.nonce_len, Some(salt), "{}", method.name());
            if salt == 24 {
                assert_eq!(inf.cipher_hint, Some("aes-192-gcm"));
            }
        }
    }

    #[test]
    fn identifies_outline_106() {
        let inf = run(Method::ChaCha20IetfPoly1305, Profile::OUTLINE_1_0_6);
        assert!(inf.shadowsocks_like);
        assert_eq!(inf.implementation_guess, "OutlineVPN v1.0.6");
        assert_eq!(inf.nonce_len, Some(32));
    }

    #[test]
    fn identifies_unmasked_stream_class() {
        let inf = run(Method::Aes256Cfb, Profile::SS_PYTHON);
        assert!(inf.shadowsocks_like);
        assert_eq!(inf.masks_addr_type, Some(false));
        assert!(inf.implementation_guess.contains("unmasked"));
    }

    #[test]
    fn post_fix_implementations_are_opaque() {
        for (method, profile) in [
            (Method::Aes256Cfb, Profile::LIBEV_NEW),
            (Method::Aes256Gcm, Profile::LIBEV_NEW),
            (Method::ChaCha20IetfPoly1305, Profile::OUTLINE_1_0_7),
            (Method::ChaCha20IetfPoly1305, Profile::OUTLINE_1_1_0),
        ] {
            let inf = run(method, profile);
            assert!(
                !inf.shadowsocks_like,
                "{} {} must be opaque",
                profile.name,
                method.name()
            );
            assert_eq!(inf.construction, None);
        }
    }

    #[test]
    fn filter_detection_distinguishes_filtered_servers() {
        // Old libev (filter) vs a hypothetical filterless masked stream.
        let with = ServerConfig::new(Method::Aes256Ctr, "pw", Profile::LIBEV_OLD);
        let mut oracle = EngineOracle::new(with, 9);
        assert!(detect_replay_filter(&mut oracle));

        let mut no_filter_profile = Profile::LIBEV_OLD;
        no_filter_profile.replay_filter = false;
        let without = ServerConfig::new(Method::Aes256Ctr, "pw", no_filter_profile);
        let mut oracle = EngineOracle::new(without, 10);
        assert!(!detect_replay_filter(&mut oracle));
    }
}
