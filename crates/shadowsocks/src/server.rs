//! The Shadowsocks server engine, parameterized by implementation
//! profile.
//!
//! Pure in the functional sense: bytes in, [`ServerAction`]s out, no
//! I/O and no clock. Timeouts belong to the transport adapter (see
//! [`crate::apps`]); everything the paper's Fig 10 and Table 5 describe
//! — who RSTs, who FINs, who waits, at which byte thresholds, with what
//! probability — emerges from this state machine running the *real*
//! cryptography against the input.

use crate::addr::{parse_spec, ParseOutcome, TargetAddr};
use crate::bloom::PingPongBloom;
use crate::config::ServerConfig;
use crate::profile::ErrorReaction;
use crate::wire::{AeadDecryptor, AeadEncryptor, StreamDecryptor, StreamEncryptor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sscrypto::method::Kind;
use std::collections::HashMap;

/// What the server wants its transport to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerAction {
    /// Open an outbound connection to the decrypted target.
    ConnectTarget(TargetAddr),
    /// Forward decrypted payload to the target.
    RelayToTarget(Vec<u8>),
    /// Send (already encrypted) bytes back to the client.
    SendToClient(Vec<u8>),
    /// Abort the client connection (RST on the wire).
    CloseRst,
    /// Close the client connection gracefully (FIN/ACK on the wire).
    CloseFin,
}

/// Per-connection decryption phase.
enum Phase {
    /// Stream construction: reading IV, then the target spec.
    StreamHeader {
        dec: StreamDecryptor,
        plain: Vec<u8>,
        replay_checked: bool,
    },
    /// AEAD construction: reading salt and the first length chunk.
    AeadHeader {
        dec: AeadDecryptor,
        /// Total raw bytes received on this connection.
        got: usize,
        /// Bytes withheld from the decryptor until the profile's
        /// threshold is reached (models libev's read sizing).
        staged: Vec<u8>,
        replay_checked: bool,
        /// Decrypted-but-unparsed plaintext (spec may span chunks).
        plain: Vec<u8>,
    },
    /// Spec parsed; waiting for the outbound connection.
    Connecting { pending: Vec<u8> },
    /// Outbound connection is up; proxying.
    Relaying,
    /// Hit an error under `KeepReading`: consume input forever, never
    /// answer. (The post-fix "probing resistance" behaviour.)
    DeadSilent,
    /// Connection is finished (closed or reset).
    Done,
}

struct Conn {
    phase: Phase,
    /// Decrypt state for relaying beyond the header (stream reuses the
    /// header decryptor; AEAD reuses its decryptor too — both live in
    /// `Phase`, so relaying needs them carried forward).
    stream_dec: Option<StreamDecryptor>,
    aead_dec: Option<AeadDecryptor>,
    stream_enc: Option<StreamEncryptor>,
    aead_enc: Option<AeadEncryptor>,
}

/// A Shadowsocks server instance: one config, one replay filter, many
/// connections.
pub struct ServerConn {
    /// The configuration this server runs.
    pub config: ServerConfig,
    // `Method` dispatch hoisted out of the per-packet path: construction
    // kind and IV/salt length are resolved once per server.
    kind: Kind,
    iv_len: usize,
    filter: Option<PingPongBloom>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    rng: StdRng,
}

impl ServerConn {
    /// Create a server. `seed` drives the server's own randomness
    /// (response IVs/salts).
    ///
    /// # Panics
    ///
    /// Panics if the profile does not support the configured method's
    /// construction (e.g. a stream method on OutlineVPN).
    pub fn new(config: ServerConfig, seed: u64) -> ServerConn {
        if config.method.kind() == Kind::Stream {
            assert!(
                config.profile.supports_stream,
                "{} does not support stream ciphers",
                config.profile.name
            );
        }
        let filter = config
            .profile
            .replay_filter
            .then(|| PingPongBloom::new(config.replay_filter_capacity));
        ServerConn {
            kind: config.method.kind(),
            iv_len: config.method.iv_len(),
            config,
            filter,
            conns: HashMap::new(),
            next_id: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Register a new inbound connection, returning its handle.
    pub fn open_conn(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let phase = match self.config.stream_key() {
            Some(key) => Phase::StreamHeader {
                dec: StreamDecryptor::with_key(key.clone()),
                plain: Vec::new(),
                replay_checked: false,
            },
            None => Phase::AeadHeader {
                dec: AeadDecryptor::new(self.config.method, &self.config.master_key),
                got: 0,
                staged: Vec::new(),
                replay_checked: false,
                plain: Vec::new(),
            },
        };
        self.conns.insert(
            id,
            Conn {
                phase,
                stream_dec: None,
                aead_dec: None,
                stream_enc: None,
                aead_enc: None,
            },
        );
        id
    }

    /// Drop a connection's state (client went away).
    pub fn close_conn(&mut self, conn: u64) {
        self.conns.remove(&conn);
    }

    /// Simulate a server restart: the replay filter forgets everything
    /// (§7.2's asymmetry) and all connection state is dropped.
    pub fn restart(&mut self) {
        if let Some(f) = &mut self.filter {
            f.restart();
        }
        self.conns.clear();
    }

    fn fail(conn: &mut Conn, reaction: ErrorReaction) -> Vec<ServerAction> {
        match reaction {
            ErrorReaction::CloseImmediately => {
                conn.phase = Phase::Done;
                vec![ServerAction::CloseRst]
            }
            ErrorReaction::KeepReading => {
                conn.phase = Phase::DeadSilent;
                Vec::new()
            }
        }
    }

    /// Feed client bytes into a connection.
    pub fn on_data(&mut self, conn_id: u64, data: &[u8]) -> Vec<ServerAction> {
        let profile = self.config.profile;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return Vec::new();
        };
        // Take the phase out so the connection record and the phase can
        // be manipulated independently.
        let phase = std::mem::replace(&mut conn.phase, Phase::Done);
        match phase {
            Phase::DeadSilent => {
                conn.phase = Phase::DeadSilent;
                Vec::new()
            }
            Phase::Done => Vec::new(),
            Phase::StreamHeader {
                mut dec,
                mut plain,
                mut replay_checked,
            } => {
                dec.decrypt_into(data, &mut plain);
                if !dec.iv_complete() {
                    conn.phase = Phase::StreamHeader {
                        dec,
                        plain,
                        replay_checked,
                    };
                    return Vec::new();
                }
                if !replay_checked {
                    replay_checked = true;
                    if let Some(filter) = &mut self.filter {
                        if filter.check_and_insert(dec.iv()) {
                            return Self::fail(conn, profile.error_reaction);
                        }
                    }
                }
                match parse_spec(&plain, profile.masks_addr_type) {
                    ParseOutcome::NeedMore => {
                        conn.phase = Phase::StreamHeader {
                            dec,
                            plain,
                            replay_checked,
                        };
                        Vec::new()
                    }
                    ParseOutcome::InvalidType(_) => Self::fail(conn, profile.error_reaction),
                    ParseOutcome::Complete(target, consumed) => {
                        let pending = plain[consumed..].to_vec();
                        conn.stream_dec = Some(dec);
                        conn.phase = Phase::Connecting { pending };
                        vec![ServerAction::ConnectTarget(target)]
                    }
                }
            }
            Phase::AeadHeader {
                mut dec,
                mut got,
                mut staged,
                mut replay_checked,
                mut plain,
            } => {
                got += data.len();
                let salt_len = self.iv_len;
                let threshold = profile.aead_threshold(salt_len);
                // Feed the salt portion immediately; stage the rest until
                // the profile's read threshold is reached. Decrypted
                // plaintext lands directly in `plain`.
                let mut auth_failed = false;
                if !dec.salt_complete() {
                    let need = salt_len.saturating_sub(dec.salt().len());
                    let take = need.min(data.len());
                    auth_failed |= dec.decrypt_into(&data[..take], &mut plain).is_err();
                    staged.extend_from_slice(&data[take..]);
                } else {
                    staged.extend_from_slice(data);
                }
                if !auth_failed && dec.salt_complete() && got >= threshold && !staged.is_empty() {
                    let to_feed = std::mem::take(&mut staged);
                    auth_failed |= dec.decrypt_into(&to_feed, &mut plain).is_err();
                }
                if dec.salt_complete() && !replay_checked {
                    replay_checked = true;
                    if let Some(filter) = &mut self.filter {
                        if filter.check_and_insert(dec.salt()) {
                            return Self::fail(conn, profile.error_reaction);
                        }
                    }
                }
                if auth_failed {
                    // Outline v1.0.6: FIN at exactly the header size,
                    // RST beyond it (§5.2.1).
                    if profile.fin_at_exact_header {
                        conn.phase = Phase::Done;
                        return if got == threshold {
                            vec![ServerAction::CloseFin]
                        } else {
                            vec![ServerAction::CloseRst]
                        };
                    }
                    return Self::fail(conn, profile.error_reaction);
                }
                match parse_spec(&plain, profile.masks_addr_type) {
                    ParseOutcome::NeedMore => {
                        conn.phase = Phase::AeadHeader {
                            dec,
                            got,
                            staged,
                            replay_checked,
                            plain,
                        };
                        Vec::new()
                    }
                    ParseOutcome::InvalidType(_) => Self::fail(conn, profile.error_reaction),
                    ParseOutcome::Complete(target, consumed) => {
                        let pending = plain[consumed..].to_vec();
                        conn.aead_dec = Some(dec);
                        conn.phase = Phase::Connecting { pending };
                        vec![ServerAction::ConnectTarget(target)]
                    }
                }
            }
            Phase::Connecting { mut pending } => {
                // Keep decrypting while the outbound connect is pending;
                // plaintext accumulates directly onto `pending`.
                let res = match self.kind {
                    Kind::Stream => {
                        if let Some(dec) = &mut conn.stream_dec {
                            dec.decrypt_into(data, &mut pending);
                        }
                        Ok(())
                    }
                    Kind::Aead => conn
                        .aead_dec
                        .as_mut()
                        .map_or(Ok(()), |dec| dec.decrypt_into(data, &mut pending)),
                };
                match res {
                    Ok(()) => {
                        conn.phase = Phase::Connecting { pending };
                        Vec::new()
                    }
                    Err(_) => Self::fail(conn, profile.error_reaction),
                }
            }
            Phase::Relaying => {
                let mut flat = Vec::new();
                let res = match self.kind {
                    Kind::Stream => {
                        if let Some(dec) = &mut conn.stream_dec {
                            dec.decrypt_into(data, &mut flat);
                        }
                        Ok(())
                    }
                    Kind::Aead => conn
                        .aead_dec
                        .as_mut()
                        .map_or(Ok(()), |dec| dec.decrypt_into(data, &mut flat)),
                };
                match res {
                    Ok(()) => {
                        conn.phase = Phase::Relaying;
                        if flat.is_empty() {
                            Vec::new()
                        } else {
                            vec![ServerAction::RelayToTarget(flat)]
                        }
                    }
                    Err(_) => Self::fail(conn, profile.error_reaction),
                }
            }
        }
    }

    /// The outbound connection for `conn_id` succeeded.
    pub fn on_target_connected(&mut self, conn_id: u64) -> Vec<ServerAction> {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return Vec::new();
        };
        if let Phase::Connecting { pending } = &mut conn.phase {
            let pending = std::mem::take(pending);
            conn.phase = Phase::Relaying;
            if pending.is_empty() {
                Vec::new()
            } else {
                vec![ServerAction::RelayToTarget(pending)]
            }
        } else {
            Vec::new()
        }
    }

    /// The outbound connection for `conn_id` failed: the server closes
    /// the client connection gracefully — the FIN/ACK reaction of
    /// Fig 10a's valid-address-type slice.
    pub fn on_target_failed(&mut self, conn_id: u64) -> Vec<ServerAction> {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return Vec::new();
        };
        match conn.phase {
            Phase::Connecting { .. } | Phase::Relaying => {
                conn.phase = Phase::Done;
                vec![ServerAction::CloseFin]
            }
            _ => Vec::new(),
        }
    }

    /// Data arrived from the target: encrypt it for the client.
    pub fn on_target_data(&mut self, conn_id: u64, data: &[u8]) -> Vec<ServerAction> {
        let method = self.config.method;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return Vec::new();
        };
        let mut encrypted = Vec::new();
        match self.config.stream_key() {
            Some(key) => {
                if conn.stream_enc.is_none() {
                    let mut iv = vec![0u8; self.iv_len];
                    self.rng.fill(&mut iv[..]);
                    conn.stream_enc = Some(StreamEncryptor::with_key(key, iv));
                }
                if let Some(enc) = &mut conn.stream_enc {
                    enc.encrypt_into(data, &mut encrypted);
                }
            }
            None => {
                if conn.aead_enc.is_none() {
                    let mut salt = vec![0u8; self.iv_len];
                    self.rng.fill(&mut salt[..]);
                    conn.aead_enc = Some(AeadEncryptor::new(method, &self.config.master_key, salt));
                }
                if let Some(enc) = &mut conn.aead_enc {
                    enc.seal_into(data, &mut encrypted);
                }
            }
        };
        vec![ServerAction::SendToClient(encrypted)]
    }
}
