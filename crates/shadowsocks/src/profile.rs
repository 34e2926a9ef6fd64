//! Implementation behaviour profiles.
//!
//! The paper's central insight (§5) is that different Shadowsocks
//! implementations react *differently* to malformed input, and those
//! differences are what the GFW's probes measure. A [`Profile`] is a
//! declarative transcription of one implementation+version's quirks;
//! the [`crate::server::ServerConn`] engine interprets it.
//!
//! Sources: §5.2.1/Fig 10/Table 5 of the paper; the shadowsocks-libev
//! commit `a99c39c` ("Simplify the server auto blocking mechanism")
//! that turned RSTs into timeouts in v3.3.1; the outline-ss-server
//! commit `c70d512` ("probing resistance via timeout") in v1.0.7; and
//! outline-ss-server v1.1.0's replay defense.

use serde::{Deserialize, Serialize};

/// How a server reacts when it hits a protocol error (bad address type,
/// failed authentication, detected replay).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorReaction {
    /// Close immediately. Whether the wire shows RST or FIN/ACK depends
    /// on whether unread bytes sit in the kernel buffer (Frolov et al.);
    /// for the probe shapes in this study it manifests as RST.
    CloseImmediately,
    /// Keep reading forever — never reveal the error (the post-fix
    /// behaviour; manifests as TIMEOUT).
    KeepReading,
}

/// Shadowsocks-libev versions studied by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs, reason = "variant names are the release versions")]
pub enum LibevVersion {
    V3_0_8,
    V3_1_3,
    V3_2_5,
    V3_3_1,
    V3_3_3,
}

/// OutlineVPN (outline-ss-server) versions studied by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs, reason = "variant names are the release versions")]
pub enum OutlineVersion {
    V1_0_6,
    V1_0_7,
    V1_0_8,
    /// Released February 2020 with the replay defense (§11).
    V1_1_0,
}

/// A behavioural profile: every reaction-relevant implementation quirk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// Display name, e.g. "ss-libev v3.3.1".
    pub name: &'static str,
    /// Reaction to protocol errors.
    pub error_reaction: ErrorReaction,
    /// Masks the upper nibble of the address type before validating
    /// (raises a random byte's pass rate from 3/256 to 3/16, §5.2.1).
    pub masks_addr_type: bool,
    /// Has a nonce (IV/salt) replay filter.
    pub replay_filter: bool,
    /// AEAD: waits for `salt + 2 + 16 + 16` bytes before attempting to
    /// decrypt the length chunk (libev); `false` means it attempts at
    /// `salt + 2 + 16` (Outline).
    pub aead_waits_for_payload_tag: bool,
    /// Outline v1.0.6 quirk: a probe of exactly `salt + 18` bytes gets
    /// an immediate FIN/ACK; anything longer gets RST.
    pub fin_at_exact_header: bool,
    /// Supports stream ciphers at all (Outline is AEAD-only).
    pub supports_stream: bool,
}

impl Profile {
    /// shadowsocks-libev v3.0.8 … v3.2.5 (the pre-fix behaviour).
    pub const LIBEV_OLD: Profile = Profile {
        name: "ss-libev v3.0.8-v3.2.5",
        error_reaction: ErrorReaction::CloseImmediately,
        masks_addr_type: true,
        replay_filter: true,
        aead_waits_for_payload_tag: true,
        fin_at_exact_header: false,
        supports_stream: true,
    };

    /// shadowsocks-libev v3.3.1 … v3.3.3 (errors become timeouts).
    pub const LIBEV_NEW: Profile = Profile {
        name: "ss-libev v3.3.1-v3.3.3",
        error_reaction: ErrorReaction::KeepReading,
        masks_addr_type: true,
        replay_filter: true,
        aead_waits_for_payload_tag: true,
        fin_at_exact_header: false,
        supports_stream: true,
    };

    /// OutlineVPN v1.0.6 (FIN at exactly 50 bytes, RST above; no replay
    /// filter).
    pub const OUTLINE_1_0_6: Profile = Profile {
        name: "OutlineVPN v1.0.6",
        error_reaction: ErrorReaction::CloseImmediately,
        masks_addr_type: false,
        replay_filter: false,
        aead_waits_for_payload_tag: false,
        fin_at_exact_header: true,
        supports_stream: false,
    };

    /// OutlineVPN v1.0.7–v1.0.8 (probing resistance via timeout; still
    /// no replay filter).
    pub const OUTLINE_1_0_7: Profile = Profile {
        name: "OutlineVPN v1.0.7-v1.0.8",
        error_reaction: ErrorReaction::KeepReading,
        masks_addr_type: false,
        replay_filter: false,
        aead_waits_for_payload_tag: false,
        fin_at_exact_header: false,
        supports_stream: false,
    };

    /// OutlineVPN v1.1.0 (February 2020: replay defense added, §11).
    pub const OUTLINE_1_1_0: Profile = Profile {
        name: "OutlineVPN v1.1.0",
        error_reaction: ErrorReaction::KeepReading,
        masks_addr_type: false,
        replay_filter: true,
        aead_waits_for_payload_tag: false,
        fin_at_exact_header: false,
        supports_stream: false,
    };

    /// shadowsocks-python — no address-type masking, immediate close on
    /// error, no replay filter. One of the two implementations whose
    /// servers were actually blocked in the paper's experiments (§6).
    pub const SS_PYTHON: Profile = Profile {
        name: "shadowsocks-python",
        error_reaction: ErrorReaction::CloseImmediately,
        masks_addr_type: false,
        replay_filter: false,
        aead_waits_for_payload_tag: true,
        fin_at_exact_header: false,
        supports_stream: true,
    };

    /// ShadowsocksR — stream-cipher-centric fork, no replay filter, no
    /// masking. The other implementation blocked in §6.
    pub const SSR: Profile = Profile {
        name: "ShadowsocksR",
        error_reaction: ErrorReaction::CloseImmediately,
        masks_addr_type: false,
        replay_filter: false,
        aead_waits_for_payload_tag: true,
        fin_at_exact_header: false,
        supports_stream: true,
    };

    /// shadowsocks-rust ≤ v1.8.4: AEAD-capable, silent on errors, but
    /// no replay filter yet.
    pub const SS_RUST_OLD: Profile = Profile {
        name: "shadowsocks-rust <=v1.8.4",
        error_reaction: ErrorReaction::KeepReading,
        masks_addr_type: false,
        replay_filter: false,
        aead_waits_for_payload_tag: true,
        fin_at_exact_header: false,
        supports_stream: true,
    };

    /// shadowsocks-rust v1.8.5 — the replay-defense release the paper's
    /// preliminary disclosure potentially led to (§11).
    pub const SS_RUST_1_8_5: Profile = Profile {
        name: "shadowsocks-rust v1.8.5",
        error_reaction: ErrorReaction::KeepReading,
        masks_addr_type: false,
        replay_filter: true,
        aead_waits_for_payload_tag: true,
        fin_at_exact_header: false,
        supports_stream: true,
    };

    /// All profiles the paper's prober-simulator experiment covers
    /// (§5.1's selection) plus the post-disclosure releases, in a
    /// stable order.
    pub const ALL: &'static [Profile] = &[
        Profile::LIBEV_OLD,
        Profile::LIBEV_NEW,
        Profile::OUTLINE_1_0_6,
        Profile::OUTLINE_1_0_7,
        Profile::OUTLINE_1_1_0,
        Profile::SS_PYTHON,
        Profile::SSR,
        Profile::SS_RUST_OLD,
        Profile::SS_RUST_1_8_5,
    ];

    /// The AEAD length-header threshold: bytes the server wants before
    /// attempting its first decryption, for a given salt length.
    ///
    /// libev reads until it has the salt, the 2+16-byte length chunk,
    /// the 16-byte payload tag *and at least one payload byte* — so its
    /// first decryption (and RST) happens at `salt + 35` bytes, matching
    /// Fig 10b's "TIMEOUT through 50, RST from 51" for a 16-byte salt.
    /// Outline attempts as soon as the `salt + 18`-byte header is
    /// complete.
    pub fn aead_threshold(&self, salt_len: usize) -> usize {
        if self.aead_waits_for_payload_tag {
            salt_len + 2 + 16 + 16 + 1
        } else {
            salt_len + 2 + 16
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_fig10b() {
        // libev with a 16-byte salt starts decrypting (and RSTing) at 51
        // bytes; Outline with its 32-byte salt reacts at exactly 50.
        assert_eq!(Profile::LIBEV_OLD.aead_threshold(16), 51);
        assert_eq!(Profile::LIBEV_OLD.aead_threshold(24), 59);
        assert_eq!(Profile::LIBEV_OLD.aead_threshold(32), 67);
        assert_eq!(Profile::OUTLINE_1_0_6.aead_threshold(32), 50);
    }

    #[test]
    fn fix_history_is_encoded() {
        assert_eq!(
            Profile::LIBEV_OLD.error_reaction,
            ErrorReaction::CloseImmediately
        );
        assert_eq!(
            Profile::LIBEV_NEW.error_reaction,
            ErrorReaction::KeepReading
        );
        assert!(!Profile::OUTLINE_1_0_7.replay_filter);
        assert!(Profile::OUTLINE_1_1_0.replay_filter);
        // §11: ss-rust gained its replay defense in v1.8.5.
        assert!(!Profile::SS_RUST_OLD.replay_filter);
        assert!(Profile::SS_RUST_1_8_5.replay_filter);
    }

    #[test]
    fn outline_is_aead_only() {
        assert!(!Profile::OUTLINE_1_0_6.supports_stream);
        assert!(Profile::LIBEV_OLD.supports_stream);
    }

    #[test]
    fn profile_names_unique() {
        let mut names: Vec<_> = Profile::ALL.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Profile::ALL.len());
    }
}
