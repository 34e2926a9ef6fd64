//! # defense — circumvention defenses (§7)
//!
//! Both halves of the paper's countermeasure story:
//!
//! * **Against traffic analysis** ([`brdgrd`]): server-side receive-
//!   window clamping that forces the client's Shadowsocks handshake
//!   into small TCP segments, breaking the GFW's first-packet length
//!   feature (§7.1, Fig 11). Plus the client-side alternative the
//!   OutlineVPN developers shipped after disclosure: merging header and
//!   data so the first-packet length is variable ([`shaping`]).
//! * **Against active probing** ([`harden`]): the §7.2 advice applied
//!   to a behaviour profile — keep a replay filter and give consistent
//!   server reactions ("read forever on error").

pub mod brdgrd;
pub mod shaping;

pub use brdgrd::Brdgrd;

use shadowsocks::profile::{ErrorReaction, Profile};

/// Apply the paper's §7.2 hardening advice to a behaviour profile:
/// never reveal errors (read forever) and keep a replay filter.
pub fn harden(mut profile: Profile) -> Profile {
    profile.error_reaction = ErrorReaction::KeepReading;
    profile.replay_filter = true;
    profile.fin_at_exact_header = false;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harden_silences_and_filters() {
        let h = harden(Profile::OUTLINE_1_0_6);
        assert_eq!(h.error_reaction, ErrorReaction::KeepReading);
        assert!(h.replay_filter);
        assert!(!h.fin_at_exact_header);
    }

    #[test]
    fn hardened_profile_is_opaque_to_inference() {
        use probesim::{infer, EngineOracle};
        use shadowsocks::ServerConfig;
        use sscrypto::method::Method;
        let config = ServerConfig::new(Method::Aes256Gcm, "pw", harden(Profile::LIBEV_OLD));
        let mut oracle = EngineOracle::new(config, 5);
        let inf = infer(&mut oracle, 40);
        assert!(!inf.shadowsocks_like, "{inf:?}");
    }
}
