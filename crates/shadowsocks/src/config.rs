//! Server/client configuration.

use crate::profile::Profile;
use sscrypto::kdf::evp_bytes_to_key;
use sscrypto::method::{AeadKey, Kind, Method, StreamKey};

/// Configuration shared by a Shadowsocks server and its clients.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Cipher method.
    pub method: Method,
    /// Master key (derived from the password via `EVP_BytesToKey`).
    pub master_key: Vec<u8>,
    /// Implementation behaviour profile.
    pub profile: Profile,
    /// Idle timeout in seconds (libev defaults to 60; the paper notes
    /// the GFW's probers give up in under 10).
    pub timeout_secs: u64,
    /// Capacity of the replay filter, if the profile has one.
    pub replay_filter_capacity: usize,
    /// `master_key` prepared once for the method's construction: every
    /// client, server and reply session of this config starts from it.
    key: PreparedKey,
}

/// A config's master key, prepared once for its method's construction.
#[derive(Clone, Debug)]
pub enum PreparedKey {
    /// A stream method's key: its sessions share the AES key schedule.
    Stream(StreamKey),
    /// An AEAD method's key, held inline: its sessions copy it without
    /// allocating and derive their subkeys from it.
    Aead(AeadKey),
}

impl ServerConfig {
    /// Build a config from a password, deriving the master key exactly
    /// as every Shadowsocks implementation does.
    pub fn new(method: Method, password: &str, profile: Profile) -> ServerConfig {
        let master_key = evp_bytes_to_key(password.as_bytes(), method.key_len());
        let key = match method.kind() {
            Kind::Stream => PreparedKey::Stream(method.stream_key(&master_key)),
            Kind::Aead => PreparedKey::Aead(method.aead_key(&master_key)),
        };
        ServerConfig {
            method,
            master_key,
            profile,
            timeout_secs: 60,
            replay_filter_capacity: 100_000,
            key,
        }
    }

    /// The prepared key every session of this config starts from.
    pub fn key(&self) -> &PreparedKey {
        &self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_has_method_length() {
        for &m in sscrypto::method::ALL_METHODS {
            let c = ServerConfig::new(m, "pw", Profile::LIBEV_OLD);
            assert_eq!(c.master_key.len(), m.key_len());
        }
    }

    #[test]
    fn same_password_same_key() {
        let a = ServerConfig::new(Method::Aes256Gcm, "hunter2", Profile::LIBEV_OLD);
        let b = ServerConfig::new(Method::Aes256Gcm, "hunter2", Profile::LIBEV_NEW);
        assert_eq!(a.master_key, b.master_key);
    }
}
