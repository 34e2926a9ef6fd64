//! The Shadowsocks client session: builds the wire bytes a client sends
//! and decrypts what the server returns.
//!
//! The shape of the **first packet** is what the GFW's passive detector
//! keys on (§4.2): for stream ciphers it is `IV + spec + payload`; for
//! AEAD it is `salt + chunk(spec) + chunk(payload)`. The
//! `merge_first_chunks` option reproduces the July 2020 OutlineVPN
//! change (§11) that merged header and initial data into one chunk to
//! make the first-packet length variable.

use crate::addr::TargetAddr;
use crate::config::ServerConfig;
use crate::wire::{AeadDecryptor, AeadEncryptor, StreamDecryptor, StreamEncryptor};
use rand::Rng;

enum Enc {
    Stream(StreamEncryptor),
    Aead(AeadEncryptor),
}

enum Dec {
    Stream(StreamDecryptor),
    Aead(AeadDecryptor),
}

/// One client connection's crypto state.
pub struct ClientSession {
    enc: Enc,
    dec: Dec,
    target: TargetAddr,
    spec_sent: bool,
    /// Encode the target spec and the first payload as a single AEAD
    /// chunk (post-disclosure OutlineVPN behaviour) instead of separate
    /// chunks.
    pub merge_first_chunks: bool,
}

impl ClientSession {
    /// Start a session to `target`; the per-stream IV/salt is drawn from
    /// `rng`.
    pub fn new(config: &ServerConfig, target: TargetAddr, rng: &mut impl Rng) -> ClientSession {
        let method = config.method;
        let mut nonce = vec![0u8; method.iv_len()];
        rng.fill(&mut nonce[..]);
        // A stream config carries its prepared key; both directions
        // start from it instead of expanding the master key again.
        let (enc, dec) = match config.stream_key() {
            Some(key) => (
                Enc::Stream(StreamEncryptor::with_key(key, nonce)),
                Dec::Stream(StreamDecryptor::with_key(key.clone())),
            ),
            None => (
                Enc::Aead(AeadEncryptor::new(method, &config.master_key, nonce)),
                Dec::Aead(AeadDecryptor::new(method, &config.master_key)),
            ),
        };
        ClientSession {
            enc,
            dec,
            target,
            spec_sent: false,
            merge_first_chunks: false,
        }
    }

    /// Encrypt application data. The first call prepends the target
    /// specification (and the IV/salt), producing the first-packet
    /// payload whose length and entropy the GFW inspects.
    pub fn send(&mut self, data: &[u8]) -> Vec<u8> {
        if !self.spec_sent {
            self.spec_sent = true;
            let spec = self.target.encode();
            match &mut self.enc {
                Enc::Stream(enc) => {
                    // A stream cipher's keystream is continuous, so two
                    // sequential encrypt calls yield the same bytes as
                    // one call on the concatenation.
                    let mut out = Vec::new();
                    enc.encrypt_into(&spec, &mut out);
                    enc.encrypt_into(data, &mut out);
                    out
                }
                Enc::Aead(enc) => {
                    let mut out = Vec::new();
                    if self.merge_first_chunks {
                        let mut plain = spec;
                        plain.extend_from_slice(data);
                        enc.seal_into(&plain, &mut out);
                    } else {
                        enc.seal_into(&spec, &mut out);
                        enc.seal_into(data, &mut out);
                    }
                    out
                }
            }
        } else {
            match &mut self.enc {
                Enc::Stream(enc) => enc.encrypt(data),
                Enc::Aead(enc) => enc.seal(data),
            }
        }
    }

    /// Decrypt bytes received from the server. AEAD authentication
    /// failures return an empty vec (a real client would abort; for the
    /// experiments we only care that no plaintext is produced).
    pub fn recv(&mut self, data: &[u8]) -> Vec<u8> {
        match &mut self.dec {
            Dec::Stream(dec) => dec.decrypt(data),
            Dec::Aead(dec) => {
                let mut out = Vec::new();
                // On auth failure `decrypt_into` restores `out` to its
                // prior (empty) length, matching the old behaviour.
                let _ = dec.decrypt_into(data, &mut out);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::server::{ServerAction, ServerConn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sscrypto::method::Method;

    fn end_to_end(method: Method, merge: bool) {
        let config = ServerConfig::new(method, "pw-123", Profile::LIBEV_NEW);
        let mut rng = StdRng::seed_from_u64(9);
        let target = TargetAddr::Hostname(b"example.com".to_vec(), 80);
        let mut client = ClientSession::new(&config, target.clone(), &mut rng);
        client.merge_first_chunks = merge;
        let mut server = ServerConn::new(config, 7);
        let conn = server.open_conn();

        // Client → server: first packet with HTTP request.
        let wire = client.send(b"GET / HTTP/1.1\r\n\r\n");
        let actions = server.on_data(conn, &wire);
        assert_eq!(
            actions,
            vec![ServerAction::ConnectTarget(target)],
            "{} merge={merge}",
            method.name()
        );
        // Target connects; pending data flushes.
        let actions = server.on_target_connected(conn);
        assert_eq!(
            actions,
            vec![ServerAction::RelayToTarget(
                b"GET / HTTP/1.1\r\n\r\n".to_vec()
            )]
        );
        // Target responds; server encrypts; client decrypts.
        let actions = server.on_target_data(conn, b"HTTP/1.1 200 OK\r\n\r\nhello");
        let ServerAction::SendToClient(ct) = &actions[0] else {
            panic!("expected SendToClient");
        };
        assert_eq!(client.recv(ct), b"HTTP/1.1 200 OK\r\n\r\nhello");
        // Second client write relays directly.
        let wire2 = client.send(b"more data");
        let actions = server.on_data(conn, &wire2);
        assert_eq!(
            actions,
            vec![ServerAction::RelayToTarget(b"more data".to_vec())]
        );
    }

    #[test]
    fn proxy_roundtrip_every_method() {
        for &m in sscrypto::method::ALL_METHODS {
            end_to_end(m, false);
        }
    }

    #[test]
    fn proxy_roundtrip_merged_first_chunk() {
        end_to_end(Method::ChaCha20IetfPoly1305, true);
    }

    #[test]
    fn merged_first_packet_is_shorter() {
        // Merging removes one 2+16+16 chunk frame from the first packet
        // — and makes its length depend on the payload (§11).
        let config = ServerConfig::new(Method::ChaCha20IetfPoly1305, "pw", Profile::OUTLINE_1_0_7);
        let mut rng = StdRng::seed_from_u64(1);
        let target = TargetAddr::Ipv4([1, 2, 3, 4], 443);
        let mut split = ClientSession::new(&config, target.clone(), &mut rng);
        let mut merged = ClientSession::new(&config, target, &mut rng);
        merged.merge_first_chunks = true;
        let a = split.send(b"hello");
        let b = merged.send(b"hello");
        assert_eq!(a.len() - b.len(), 2 + 16 + 16);
    }

    #[test]
    fn split_delivery_to_server() {
        // brdgrd chops the first packet into small segments; the server
        // must reassemble transparently (Fig 10a's per-length behaviour
        // notwithstanding, a *genuine* split connection still works on
        // profiles that wait rather than RST).
        let config = ServerConfig::new(Method::Aes256Gcm, "pw", Profile::LIBEV_NEW);
        let mut rng = StdRng::seed_from_u64(3);
        let target = TargetAddr::Ipv4([10, 0, 0, 1], 80);
        let mut client = ClientSession::new(&config, target.clone(), &mut rng);
        let mut server = ServerConn::new(config, 4);
        let conn = server.open_conn();
        let wire = client.send(b"payload");
        let mut actions = Vec::new();
        for chunk in wire.chunks(3) {
            actions.extend(server.on_data(conn, chunk));
        }
        assert_eq!(actions, vec![ServerAction::ConnectTarget(target)]);
    }
}
