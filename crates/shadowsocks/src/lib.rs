//! # shadowsocks — the Shadowsocks protocol, with per-implementation
//! behaviour profiles
//!
//! This crate implements both Shadowsocks cryptographic constructions
//! (§2 of *How China Detects and Blocks Shadowsocks*, IMC 2020):
//!
//! * **Stream ciphers**: `[IV][encrypted payload...]` — confidentiality
//!   only, no integrity. Deprecated, and the reason several of the GFW's
//!   probe types work at all.
//! * **AEAD ciphers**: `[salt][encrypted len][len tag][payload][payload
//!   tag]...` with HKDF-SHA1 session subkeys.
//!
//! On top of the wire formats sit **implementation behaviour profiles**
//! ([`profile::Profile`]): executable transcriptions of how
//! Shadowsocks-libev v3.0.8–v3.2.5, v3.3.1–v3.3.3 and OutlineVPN
//! v1.0.6–v1.0.8 (plus the post-disclosure v1.1.0) react to junk,
//! replays, and partial data — the reaction matrix of the paper's
//! Fig 10 and Table 5. The [`server::ServerConn`] engine is pure
//! (bytes in, actions out), so the prober simulator can interrogate it
//! directly, and the [`apps`] module adapts it onto `netsim`.
//!
//! The paper's threat model lives in the `gfw-core` crate; this crate is
//! the *defender* side of the reproduction.

// A panic on malformed input would stand in for the reaction the paper
// measures: each remaining site carries a reasoned `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod addr;
pub mod apps;
pub mod bloom;
pub mod client;
pub mod config;
pub mod profile;
pub mod server;
pub mod wire;

pub use addr::TargetAddr;
pub use client::ClientSession;
pub use config::ServerConfig;
pub use profile::{ErrorReaction, Profile};
pub use server::{ServerAction, ServerConn};
